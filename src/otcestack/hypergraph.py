"""Weighted-hypergraph trust model with analytics and a signed feed intake.

The network is modeled as a hypergraph: nodes plus hyperedges, each
hyperedge linking a group of two or more nodes and carrying a single trust
value in [0, 1]. Trust moves by an exponential moving average over batches
of behavior observations (an observation counts against trust when it is
flagged non-compliant or its latency exceeds the bound). Trust stays
local to the group: an observation whose subject is not a member of its
edge is refused, and a group is judged only by an edge that holds every
member: `group_trust` gives the one-component trust vector from which
the sandbox contract derives the group's plan. Edge ids are the
scenario's own. Analytics — the degree histogram and per-node clustering
coefficients on the clique expansion — describe the shape of the
collaboration graph. External observations arrive as oracle-signed records
and are queued until the next trust update drains them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import codec
from .keys import KeyStore

DEFAULT_ALPHA = 0.2
DEFAULT_LATENCY_BOUND = 10


@dataclass(frozen=True)
class BehaviorObservation:
    subject: str
    edge_id: str
    compliant: bool
    latency: int
    observed_at: int

    def encode(self) -> bytes:
        return codec.pack("obs", self.subject, self.edge_id, self.compliant,
                          self.latency, self.observed_at)


@dataclass(frozen=True)
class OracleFeedRecord:
    payload: BehaviorObservation
    oracle_id: str
    signature: bytes


def oracle_identity(oracle_id: str) -> str:
    return "oracle:" + oracle_id


def make_oracle_record(keystore: KeyStore, oracle_id: str,
                       obs: BehaviorObservation) -> OracleFeedRecord:
    sig = keystore.sign(oracle_identity(oracle_id), obs.encode())
    return OracleFeedRecord(obs, oracle_id, sig)


@dataclass
class Hyperedge:
    edge_id: str
    members: tuple[str, ...]
    trust: float


class TrustHypergraph:
    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 latency_bound: int = DEFAULT_LATENCY_BOUND):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if latency_bound < 0:
            raise ValueError("latency-bound must be non-negative")
        self.alpha = alpha
        self.latency_bound = latency_bound
        self.nodes: set[str] = set()
        self.edges: dict[str, Hyperedge] = {}
        self._pending: dict[str, list[BehaviorObservation]] = {}
        self._oracles: dict[str, KeyStore] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: str) -> None:
        self.nodes.add(node_id)

    def add_hyperedge(self, members, initial_trust: float, edge_id: str) -> str:
        """Add the hyperedge `edge_id` over existing nodes; returns its id."""
        uniq = tuple(sorted(set(members)))
        if len(uniq) < 2:
            raise ValueError("a hyperedge needs at least 2 distinct members")
        unknown = [m for m in uniq if m not in self.nodes]
        if unknown:
            raise ValueError(f"unknown member(s): {', '.join(map(repr, unknown))}")
        if not 0.0 <= initial_trust <= 1.0:
            raise ValueError("trust must be in [0, 1]")
        if edge_id in self.edges:
            raise ValueError(f"duplicate edge id {edge_id}")
        self.edges[edge_id] = Hyperedge(edge_id, uniq, float(initial_trust))
        self._pending[edge_id] = []
        return edge_id

    def _edge(self, edge_id: str) -> Hyperedge:
        try:
            return self.edges[edge_id]
        except KeyError:
            raise ValueError(f"unknown edge {edge_id!r}") from None

    def group_trust(self, edge_id: str, group) -> tuple[float, ...]:
        """The trust vector of `group` on the edge `edge_id`: the edge's
        trust, `(trust,)`. Only members of the edge may be judged by it,
        so an unknown edge or a group member outside it is a ValueError."""
        edge = self._edge(edge_id)
        outside = sorted(set(group).difference(edge.members))
        if outside:
            raise ValueError(f"group member(s) {', '.join(map(repr, outside))} "
                             f"not in edge {edge_id!r}")
        return (edge.trust,)

    # -- trust updates -----------------------------------------------------

    def _compliant(self, obs: BehaviorObservation) -> bool:
        return obs.compliant and obs.latency <= self.latency_bound

    def update_trust(self, edge_id: str, observations=None) -> float:
        """Fold one batch of observations into the edge's trust.

        With observations=None the queued oracle records for the edge are
        drained and used as the batch. An empty batch leaves trust unchanged.
        """
        edge = self._edge(edge_id)
        if observations is None:
            observations = self.drain_pending(edge_id)
        else:
            observations = list(observations)
        for obs in observations:
            if obs.edge_id != edge_id:
                raise ValueError(
                    f"observation for edge {obs.edge_id} applied to {edge_id}")
            if obs.subject not in edge.members:
                raise ValueError(f"subject {obs.subject} is not a member of edge {edge_id}")
        if not observations:
            return edge.trust
        a = self.alpha
        score = sum(1 for o in observations if self._compliant(o)) / len(observations)
        edge.trust = min(1.0, max(0.0, (1.0 - a) * edge.trust + a * score))
        return edge.trust

    # -- oracle feed -------------------------------------------------------

    def register_oracle(self, oracle_id: str, keystore: KeyStore) -> None:
        self._oracles[oracle_id] = keystore

    def ingest_oracle_record(self, record: OracleFeedRecord) -> bool:
        """Queue a signed observation; False (not an exception) on rejection."""
        keystore = self._oracles.get(record.oracle_id)
        if keystore is None:
            return False
        obs = record.payload
        edge = self.edges.get(obs.edge_id)
        if edge is None or obs.subject not in edge.members:
            return False
        if not keystore.verify(oracle_identity(record.oracle_id),
                               obs.encode(), record.signature):
            return False
        self._pending[obs.edge_id].append(obs)
        return True

    def drain_pending(self, edge_id: str) -> list[BehaviorObservation]:
        self._edge(edge_id)
        drained = self._pending[edge_id]
        self._pending[edge_id] = []
        return drained

    # -- analytics ---------------------------------------------------------

    def node_degrees(self) -> dict[str, int]:
        """Per-node count of hyperedges the node belongs to."""
        deg = {n: 0 for n in sorted(self.nodes)}
        for edge in self.edges.values():
            for m in edge.members:
                deg[m] += 1
        return deg

    def degree_distribution(self) -> dict[int, int]:
        """Histogram degree -> node count, over all nodes."""
        return dict(sorted(Counter(self.node_degrees().values()).items()))

    def neighbors(self) -> dict[str, set[str]]:
        """Adjacency of the clique expansion (every hyperedge becomes a clique)."""
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for edge in self.edges.values():
            for u, v in combinations(edge.members, 2):
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def clustering_coefficients(self) -> dict[str, float]:
        """Local clustering per node on the clique expansion; < 2 neighbors -> 0."""
        adj = self.neighbors()
        out: dict[str, float] = {}
        for node in sorted(self.nodes):
            nbrs = sorted(adj[node])
            k = len(nbrs)
            if k < 2:
                out[node] = 0.0
                continue
            links = sum(1 for u, v in combinations(nbrs, 2) if v in adj[u])
            out[node] = 2.0 * links / (k * (k - 1))
        return out

    # -- dump --------------------------------------------------------------

    def dump(self) -> str:
        lines = [f"node {n}\n" for n in sorted(self.nodes)]
        for edge_id in sorted(self.edges):
            edge = self.edges[edge_id]
            lines.append(f"edge {edge.edge_id} {edge.trust!r} {','.join(edge.members)}\n")
        return "".join(lines)
