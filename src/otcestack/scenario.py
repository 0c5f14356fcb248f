"""Line-oriented scenario files: configuration plus a scripted action list.

A scenario text has two kinds of lines. Configuration directives declare
the world (seed, tick budget, network shape, trust parameters, plan
mapping, attestation policy, nodes, hyperedges, oracles, faults, data
chunks). Action directives all start with ``do`` and run in file order:
sealing blocks, registering identifiers, creating and steering sandboxes,
feeding observations, running consensus instances and computation DAGs.

The parser is strict: every error names its line. A directive's values
are checked by building the component they configure (keystore, network,
trust graph, plan mapping, attestation policy), so each rule lives in that
component and the parser only names the line. Blank lines are skipped and
``#`` starts a comment (inline or whole-line).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .did import AttestationPolicy
from .hypergraph import DEFAULT_ALPHA, DEFAULT_LATENCY_BOUND, TrustHypergraph
from .keys import KeyStore
from .plan import PlanMapping
from .simnet import Behavior, FaultSpec, NetworkConfig


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class EdgeDecl:
    edge_id: str
    trust: float
    members: tuple[str, ...]


@dataclass(frozen=True)
class ChunkDecl:
    node: str
    chunk_id: str
    data: bytes


@dataclass(frozen=True)
class ParsedAction:
    line_no: int
    verb: str
    args: tuple[str, ...]
    kw: dict[str, str]


@dataclass
class Scenario:
    seed: int
    max_ticks: int = 5000
    net: NetworkConfig = NetworkConfig()
    alpha: float = DEFAULT_ALPHA
    latency_bound: int = DEFAULT_LATENCY_BOUND
    tau: float = 0.8
    weights: tuple[float, ...] = (1.0,)
    policy: tuple[tuple[str, int | None], ...] = ()
    nodes: tuple[str, ...] = ()
    edges: tuple[EdgeDecl, ...] = ()
    oracles: tuple[str, ...] = ()
    faults: tuple[FaultSpec, ...] = ()
    chunks: tuple[ChunkDecl, ...] = ()
    actions: tuple[ParsedAction, ...] = field(default_factory=tuple)


# verb -> (min positional, max positional, required kw, optional kw, free kw)
_SCHEMAS: dict[str, tuple[int, int, frozenset, frozenset, bool]] = {
    "register-did": (1, 1, frozenset(), frozenset(), True),
    "seal": (0, 0, frozenset(), frozenset(), False),
    "create-otce": (1, 1, frozenset({"group", "delta", "trust"}),
                    frozenset({"by"}), False),
    "observe": (4, 4, frozenset(), frozenset({"by-oracle"}), False),
    "oracle-feed": (5, 5, frozenset(), frozenset(), False),
    "update-trust": (1, 1, frozenset(), frozenset(), False),
    "consensus": (1, 1, frozenset({"value"}), frozenset(), False),
    "run-dag": (1, 1, frozenset({"file"}), frozenset(), False),
    "submit-result": (1, 1, frozenset(), frozenset(), False),
    "suspend": (1, 1, frozenset({"by"}), frozenset(), False),
    "resume": (1, 1, frozenset({"by"}), frozenset(), False),
    "terminate": (1, 1, frozenset({"by"}), frozenset(), False),
    "update-plan": (1, 1, frozenset({"trust", "by"}), frozenset(), False),
}


def _fail(ln: int, why: str) -> None:
    raise ScenarioError(f"line {ln}: {why}")


def _as_int(ln: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        _fail(ln, f"{what} must be an integer, got {tok!r}")


def _as_float(ln: int, tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        _fail(ln, f"{what} must be a number, got {tok!r}")


def _checked(ln: int, build, *args):
    """`build(*args)`, with the ValueError by which it refuses its
    arguments reported against line `ln`."""
    try:
        return build(*args)
    except ValueError as exc:
        _fail(ln, str(exc))


def _parse_action(ln: int, parts: list[str]) -> ParsedAction:
    if not parts:
        _fail(ln, "empty action")
    verb = parts[0]
    schema = _SCHEMAS.get(verb)
    if schema is None:
        _fail(ln, f"unknown action {verb!r}")
    lo, hi, required, optional, free = schema
    args: list[str] = []
    kw: dict[str, str] = {}
    for tok in parts[1:]:
        if "=" in tok:
            key, _, val = tok.partition("=")
            if not key:
                _fail(ln, f"bad argument {tok!r}")
            if key in kw:
                _fail(ln, f"duplicate argument {key!r}")
            kw[key] = val
        else:
            args.append(tok)
    if not lo <= len(args) <= hi:
        _fail(ln, f"{verb} takes {lo}..{hi} positional arguments, got {len(args)}")
    missing = sorted(required - set(kw))
    if missing:
        _fail(ln, f"{verb} needs {', '.join(k + '=' for k in missing)}")
    if not free:
        unknown = sorted(set(kw) - required - optional)
        if unknown:
            _fail(ln, f"{verb} does not take {', '.join(unknown)}")
    return ParsedAction(ln, verb, tuple(args), kw)


def parse_scenario(text: str) -> Scenario:
    seed: int | None = None
    singles: set[str] = set()
    cfg: dict = {}
    policy: list[tuple[str, int | None]] = []
    nodes: list[str] = []
    edges: list[EdgeDecl] = []
    oracles: list[str] = []
    faults: list[FaultSpec] = []
    chunks: list[ChunkDecl] = []
    chunk_data: dict[str, bytes] = {}   # one value per chunk id, on every holder
    actions: list[ParsedAction] = []
    graph = TrustHypergraph()       # answers the node and edge checks

    def once(ln: int, name: str) -> None:
        if name in singles:
            _fail(ln, f"duplicate {name} directive")
        singles.add(name)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]

        if head == "do":
            actions.append(_parse_action(ln, parts[1:]))
        elif head == "seed":
            once(ln, "seed")
            if len(parts) != 2:
                _fail(ln, "seed wants: seed <int>")
            seed = _checked(ln, KeyStore, _as_int(ln, parts[1], "seed")).seed
        elif head == "max-ticks":
            once(ln, "max-ticks")
            if len(parts) != 2:
                _fail(ln, "max-ticks wants: max-ticks <int>")
            cfg["max_ticks"] = _as_int(ln, parts[1], "max-ticks")
            if cfg["max_ticks"] < 1:
                _fail(ln, "max-ticks must be positive")
        elif head == "net":
            once(ln, "net")
            if len(parts) != 5:
                _fail(ln, "net wants: net <delay-min> <delay-max> <gst|-> <drop-rate>")
            cfg["net"] = _checked(
                ln, NetworkConfig, _as_int(ln, parts[1], "delay-min"),
                _as_int(ln, parts[2], "delay-max"),
                None if parts[3] == "-" else _as_int(ln, parts[3], "gst"),
                _as_float(ln, parts[4], "drop-rate"))
        elif head == "trust":
            once(ln, "trust")
            if len(parts) != 3:
                _fail(ln, "trust wants: trust <alpha> <latency-bound>")
            cfg["alpha"] = _as_float(ln, parts[1], "alpha")
            cfg["latency_bound"] = _as_int(ln, parts[2], "latency-bound")
            _checked(ln, TrustHypergraph, cfg["alpha"], cfg["latency_bound"])
        elif head == "mapping":
            once(ln, "mapping")
            if len(parts) < 3:
                _fail(ln, "mapping wants: mapping <tau> <w1> [w2 ...]")
            cfg["tau"] = _as_float(ln, parts[1], "tau")
            cfg["weights"] = tuple(_as_float(ln, t, "weight") for t in parts[2:])
            _checked(ln, PlanMapping, (cfg["weights"],), cfg["tau"])
        elif head == "policy":
            once(ln, "policy")
            if len(parts) < 2:
                _fail(ln, "policy wants: policy <name[:len]> ...")
            for tok in parts[1:]:
                name, _, length = tok.partition(":")
                policy.append((name, _as_int(ln, length, "length") if length else None))
            _checked(ln, AttestationPolicy, tuple(policy))
        elif head == "node":
            if len(parts) != 2:
                _fail(ln, "node wants: node <id>")
            if parts[1] in graph.nodes:
                _fail(ln, f"duplicate node {parts[1]!r}")
            graph.add_node(parts[1])
            nodes.append(parts[1])
        elif head == "edge":
            if len(parts) != 4:
                _fail(ln, "edge wants: edge <id> <trust> <m1,m2,...>")
            trust = _as_float(ln, parts[2], "trust")
            members = tuple(parts[3].split(","))
            _checked(ln, graph.add_hyperedge, members, trust, parts[1])
            edges.append(EdgeDecl(parts[1], trust, members))
        elif head == "oracle":
            if len(parts) != 2:
                _fail(ln, "oracle wants: oracle <id>")
            if parts[1] in oracles:
                _fail(ln, f"duplicate oracle {parts[1]!r}")
            oracles.append(parts[1])
        elif head == "fault":
            if len(parts) < 3:
                _fail(ln, "fault wants: fault <node> <behavior> [at=<tick>]")
            node, behavior_s = parts[1], parts[2]
            if node not in graph.nodes:
                _fail(ln, f"fault for undeclared node {node!r}")
            if any(f.node == node for f in faults):
                _fail(ln, f"second fault for node {node!r}")
            try:
                behavior = Behavior(behavior_s)
            except ValueError:
                ok = ", ".join(b.value for b in Behavior)
                _fail(ln, f"unknown behavior {behavior_s!r} (one of: {ok})")
            at_tick = None
            for tok in parts[3:]:
                key, _, val = tok.partition("=")
                if key != "at":
                    _fail(ln, f"fault does not take {key!r}")
                if at_tick is not None:
                    _fail(ln, f"duplicate argument {key!r}")
                at_tick = _as_int(ln, val, "at")
                if at_tick < 0:
                    _fail(ln, "at must be non-negative")
            faults.append(FaultSpec(node, behavior, at_tick or 0))
        elif head == "chunk":
            if len(parts) != 4:
                _fail(ln, "chunk wants: chunk <node> <id> <hex>")
            node, chunk_id = parts[1], parts[2]
            if node not in graph.nodes:
                _fail(ln, f"chunk on undeclared node {node!r}")
            if any(c.node == node and c.chunk_id == chunk_id for c in chunks):
                _fail(ln, f"duplicate chunk {chunk_id!r} on {node!r}")
            try:
                data = bytes.fromhex(parts[3])
            except ValueError:
                _fail(ln, f"chunk data must be hex, got {parts[3]!r}")
            if chunk_data.setdefault(chunk_id, data) != data:
                _fail(ln, f"chunk {chunk_id!r} was declared with other data")
            chunks.append(ChunkDecl(node, chunk_id, data))
        else:
            _fail(ln, f"unknown directive {head!r}")

    if seed is None:
        raise ScenarioError("scenario needs a seed directive")
    return Scenario(seed=seed, policy=tuple(policy), nodes=tuple(nodes),
                    edges=tuple(edges), oracles=tuple(oracles),
                    faults=tuple(faults), chunks=tuple(chunks),
                    actions=tuple(actions), **cfg)
