"""Executable consensus engines driven over the simulated network.

Two single-decree engines share one message shape and envelope: a
three-phase Byzantine-tolerant protocol (pre-prepare / prepare / commit
with view changes) and a majority protocol (promise / accept with proposer
retries). Replicas run honest logic only; adversarial behavior is injected
by the network layer (crash, drop-all, delay-max, or per-recipient payload
rewriting for equivocation). Every message carries a signature checked on
receipt; anything malformed, stale, or from outside the group is dropped
and counted, never raised. A broadcast hands the same wire bytes to every
peer, so the replicas of one instance share a memo from wire to decoded
message: each distinct wire is decoded and its signature checked once per
instance, while the instance, membership and sender checks run, and drops
are counted, on every delivery.

Quorum rules follow the security plan: q = n - f_max for the Byzantine
protocol (a replica is prepared on q matching prepares including its own,
and decides on q matching commits), majority for the other. View changes
use the safe thresholds: f_max + 1 observed view-changes make a replica
join, and the new leader announces the view only after a full quorum,
proposing the value of the highest prepared certificate it was shown. A
replica that has decided answers later view-change traffic with a decision
notice so stragglers converge without re-running the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from . import codec
from .keys import SIG_LEN, KeyStore
from .plan import Protocol, SecurityPlan
from .simnet import (Behavior, FaultSpec, Network, NetworkConfig, Record,
                     Send, SetTimer, SimEvent)

DEFAULT_VIEW_TIMEOUT = 40


class MsgKind(str, Enum):
    REQUEST = "request"
    PREPREPARE = "preprepare"
    PREPARE = "prepare"
    COMMIT = "commit"
    VIEWCHANGE = "viewchange"
    NEWVIEW = "newview"
    DECIDED = "decided"
    P1A = "p1a"
    P1B = "p1b"
    P2A = "p2a"
    P2B = "p2b"


@dataclass(frozen=True)
class Msg:
    instance: str
    kind: MsgKind
    sender: str
    view: int = 0            # view (byzantine engine) or ballot round (majority)
    ballot_node: int = -1    # ballot tie-break index (majority engine)
    value: bytes | None = None
    digest: bytes | None = None
    cert_view: int = -1      # viewchange: prepared view; p1b: accepted round
    cert_node: int = -1      # p1b: accepted ballot index


def msg_body(msg: Msg) -> bytes:
    return codec.pack("cons", msg.instance, msg.kind.value, msg.sender, msg.view,
                      msg.ballot_node, msg.value, msg.digest, msg.cert_view,
                      msg.cert_node)


def encode_msg(keystore: KeyStore, msg: Msg) -> bytes:
    body = msg_body(msg)
    return body + keystore.sign(msg.sender, body)


_BYTES_OR_NONE = (bytes, type(None))


def decode_msg(wire: bytes) -> Msg:
    """Decode without verifying the signature; CodecError on bad shape.

    A wire no longer than a signature has an empty body, which fails the
    field count."""
    _, instance, kind_s, sender, view, ballot_node, value, digest, cv, cn = (
        codec.unpack_record(wire[:-SIG_LEN], "cons", str, str, str, int, int,
                            _BYTES_OR_NONE, _BYTES_OR_NONE, int, int))
    try:
        kind = MsgKind(kind_s)
    except ValueError as exc:
        raise codec.CodecError(f"unknown message kind {kind_s!r}") from exc
    return Msg(instance, kind, sender, view, ballot_node, value, digest, cv, cn)


def verify_msg(keystore: KeyStore, wire: bytes) -> Msg | None:
    try:
        msg = decode_msg(wire)
    except codec.CodecError:
        return None
    if not keystore.verify(msg.sender, wire[:-SIG_LEN], wire[-SIG_LEN:]):
        return None
    return msg


@dataclass(frozen=True)
class ConsensusConfig:
    protocol: Protocol
    members: tuple[str, ...]
    f_max: int
    quorum: int
    view_timeout: int
    instance_id: str

    @property
    def n(self) -> int:
        return len(self.members)

    def index(self, node: str) -> int:
        return self.members.index(node)

    def leader(self, view: int) -> str:
        return self.members[view % self.n]


def config_from_plan(plan: SecurityPlan, members, instance_id: str,
                     view_timeout: int = DEFAULT_VIEW_TIMEOUT) -> ConsensusConfig:
    ordered = tuple(sorted(members))
    if len(ordered) != plan.n:
        raise ValueError(f"plan for n={plan.n} but {len(ordered)} members")
    return ConsensusConfig(plan.protocol, ordered, plan.f_max, plan.quorum,
                           view_timeout, instance_id)


@dataclass(frozen=True)
class Decision:
    instance_id: str
    value: bytes
    decided_at: int
    node: str
    view: int


# -- equivocation ----------------------------------------------------------

# Only proposal and vote payloads are rewritten. Recovery metadata
# (view-change certificates, promise reports, decision notices) stays
# truthful: the fault model is a node lying about what it proposes and
# votes, not forging protocol evidence.
TRANSFORMABLE = frozenset({MsgKind.PREPREPARE, MsgKind.NEWVIEW, MsgKind.PREPARE,
                           MsgKind.COMMIT, MsgKind.P2A, MsgKind.P2B})


def make_equivocation_transform(keystore: KeyStore):
    """Per-recipient payload rewriter: odd-indexed recipients get an altered
    value (or the matching altered digest), re-signed by the sender."""
    memo: dict[bytes, bytes] = {}

    def transform(payload: bytes, dst: str, dst_index: int) -> bytes:
        if dst_index % 2 == 0:
            return payload
        try:
            msg = decode_msg(payload)
        except codec.CodecError:
            return payload
        if msg.kind not in TRANSFORMABLE:
            return payload
        value, digest = msg.value, msg.digest
        if value is not None:
            alt = codec.sha(b"equivocate/" + value)
            if digest is not None and digest == codec.sha(value):
                memo[digest] = codec.sha(alt)
                digest = memo[digest]
            value = alt
        elif digest is not None:
            digest = memo.get(digest, codec.sha(b"equivocate/" + digest))
        return encode_msg(keystore, replace(msg, value=value, digest=digest))

    return transform


# -- byzantine-tolerant engine ---------------------------------------------

class _Replica:
    """What both engines share: signed broadcasts, generation-tagged timers,
    and the memoised check that opens `step` for an incoming message.

    `verified` maps a wire to its decoded message, or None when it does not
    decode or verify. That outcome depends only on the wire and the members'
    keys, and each replica ensures its key when built, before any delivery;
    so the replicas of one instance may share the memo. A replica built
    without one gets a private memo."""

    def __init__(self, cfg: ConsensusConfig, node: str, keystore: KeyStore,
                 verified: dict[bytes, Msg | None] | None = None):
        self.cfg = cfg
        self.node = node
        self.keystore = keystore
        keystore.ensure(node)
        self.verified = {} if verified is None else verified
        self.decision: Decision | None = None
        self.dropped = 0
        self._timer_gen = 0

    def _bcast(self, kind: MsgKind, **fields) -> list:
        msg = Msg(self.cfg.instance_id, kind, self.node, **fields)
        wire = encode_msg(self.keystore, msg)
        return [Send(m, wire, kind.value) for m in self.cfg.members if m != self.node]

    def _set_timer(self, delay: int) -> list:
        self._timer_gen += 1
        return [SetTimer(delay, f"t:{self._timer_gen}")]

    def _timer_live(self, label: str) -> bool:
        """True when `label` names the newest timer and nothing is decided."""
        try:
            gen = int(label.split(":", 1)[1])
        except (IndexError, ValueError):
            return False
        return gen == self._timer_gen and self.decision is None

    def _count_vote(self, tallies: dict, key, sender: str) -> set[str] | None:
        """Add `sender` to the tally under `key` and return the tally; a
        sender already counted there is a drop, and gives None."""
        tally = tallies.setdefault(key, set())
        if sender in tally:
            self.dropped += 1
            return None
        tally.add(sender)
        return tally

    def _decide(self, value: bytes, view: int, now: int, note: str) -> list:
        """Decide `value`, stop the timers, and trace `note`."""
        self.decision = Decision(self.cfg.instance_id, value, now, self.node, view)
        self._timer_gen += 1
        return [Record("decision", note)]

    def _accept(self, event: SimEvent) -> Msg | None:
        """The verified message of a delivery from a member of this instance,
        or None, counted as a drop."""
        wire = event.payload
        try:
            msg = self.verified[wire]
        except KeyError:
            msg = self.verified[wire] = verify_msg(self.keystore, wire)
        if (msg is None or msg.instance != self.cfg.instance_id
                or msg.sender not in self.cfg.members or msg.sender != event.src):
            self.dropped += 1
            return None
        return msg


class PBFTReplica(_Replica):
    """Three-phase replica: single slot, rotating leader, view changes."""

    def __init__(self, cfg: ConsensusConfig, node: str, keystore: KeyStore,
                 verified: dict[bytes, Msg | None] | None = None):
        super().__init__(cfg, node, keystore, verified)
        self.view = 0
        self.request_value: bytes | None = None
        self.proposals: dict[int, tuple[bytes, bytes]] = {}     # view -> (digest, value)
        self.prepares: dict[tuple[int, bytes], set[str]] = {}
        self.commits: dict[tuple[int, bytes], set[str]] = {}
        self.prepared_cert: tuple[int, bytes, bytes] | None = None
        self.sent_prepare: set[int] = set()
        self.sent_commit: set[int] = set()
        # target view -> sender -> (cert_view, cert_value)
        self.viewchanges: dict[int, dict[str, tuple[int, bytes | None]]] = {}
        self.vc_target = 0
        self.newview_done: set[int] = set()
        self._timeout = cfg.view_timeout

    # helpers

    def _start_timer(self) -> list:
        return self._set_timer(self._timeout)

    def _decided_notice(self) -> bytes:
        d = self.decision
        msg = Msg(self.cfg.instance_id, MsgKind.DECIDED, self.node,
                  view=d.view, value=d.value)
        return encode_msg(self.keystore, msg)

    # event entry

    def step(self, event: SimEvent, now: int) -> list:
        if event.kind == "local":
            return self._on_request(event.payload, now)
        if event.kind == "timer":
            return self._on_timer(event.label, now)
        msg = self._accept(event)
        if msg is None:
            return []
        if self.decision is not None:
            if msg.kind is MsgKind.VIEWCHANGE:
                return [Send(msg.sender, self._decided_notice(), MsgKind.DECIDED.value)]
            return []
        if msg.kind is MsgKind.PREPREPARE:
            return self._on_preprepare(msg, now)
        if msg.kind is MsgKind.PREPARE:
            return self._on_prepare(msg, now)
        if msg.kind is MsgKind.COMMIT:
            return self._on_commit(msg, now)
        if msg.kind is MsgKind.VIEWCHANGE:
            return self._on_viewchange(msg, now)
        if msg.kind is MsgKind.NEWVIEW:
            return self._on_newview(msg, now)
        if msg.kind is MsgKind.DECIDED:
            return self._adopt_decision(msg, now)
        self.dropped += 1
        return []

    # protocol steps

    def _on_request(self, value: bytes, now: int) -> list:
        if self.request_value is not None:
            return []
        self.request_value = value
        acts = self._start_timer()
        if self.node == self.cfg.leader(self.view) and self.view not in self.proposals:
            acts += self._propose(self.view, value, now)
        return acts

    def _propose(self, view: int, value: bytes, now: int) -> list:
        d = codec.sha(value)
        self.proposals[view] = (d, value)
        acts = self._bcast(MsgKind.PREPREPARE, view=view, value=value, digest=d)
        return acts + self._send_prepare(view, d, now)

    def _send_prepare(self, view: int, d: bytes, now: int) -> list:
        if view in self.sent_prepare:
            return []
        self.sent_prepare.add(view)
        self.prepares.setdefault((view, d), set()).add(self.node)
        acts = self._bcast(MsgKind.PREPARE, view=view, digest=d)
        return acts + self._check_prepared(view, d, now)

    def _on_preprepare(self, msg: Msg, now: int) -> list:
        if (msg.view != self.view or msg.sender != self.cfg.leader(msg.view)
                or msg.value is None or msg.digest != codec.sha(msg.value)):
            self.dropped += 1
            return []
        if msg.view in self.proposals:
            if self.proposals[msg.view][0] != msg.digest:
                self.dropped += 1     # leader equivocation; keep the first
            return []
        self.proposals[msg.view] = (msg.digest, msg.value)
        return self._send_prepare(msg.view, msg.digest, now)

    def _on_prepare(self, msg: Msg, now: int) -> list:
        if msg.view < self.view or msg.digest is None:
            self.dropped += 1
            return []
        if self._count_vote(self.prepares, (msg.view, msg.digest), msg.sender) is None:
            return []
        return self._check_prepared(msg.view, msg.digest, now)

    def _check_prepared(self, view: int, d: bytes, now: int) -> list:
        if view != self.view or view in self.sent_commit:
            return []
        prop = self.proposals.get(view)
        if prop is None or prop[0] != d:
            return []
        if len(self.prepares.get((view, d), ())) < self.cfg.quorum:
            return []
        self.sent_commit.add(view)
        if self.prepared_cert is None or view > self.prepared_cert[0]:
            self.prepared_cert = (view, d, prop[1])
        self.commits.setdefault((view, d), set()).add(self.node)
        acts = self._bcast(MsgKind.COMMIT, view=view, digest=d)
        return acts + self._check_decided(view, d, now)

    def _on_commit(self, msg: Msg, now: int) -> list:
        if msg.view < self.view or msg.digest is None:
            self.dropped += 1
            return []
        if self._count_vote(self.commits, (msg.view, msg.digest), msg.sender) is None:
            return []
        return self._check_decided(msg.view, msg.digest, now)

    def _check_decided(self, view: int, d: bytes, now: int) -> list:
        if self.decision is not None:
            return []
        prop = self.proposals.get(view)
        if prop is None or prop[0] != d:
            return []
        if len(self.commits.get((view, d), ())) < self.cfg.quorum:
            return []
        return self._decide(prop[1], view, now,
                            f"view={view} value={codec.short(prop[1])}")

    def _adopt_decision(self, msg: Msg, now: int) -> list:
        if msg.value is None:
            self.dropped += 1
            return []
        return self._decide(msg.value, msg.view, now,
                            f"view={msg.view} value={codec.short(msg.value)} adopted")

    def _on_timer(self, label: str, now: int) -> list:
        if not self._timer_live(label):
            return []
        return self._start_viewchange(max(self.view, self.vc_target) + 1, now)

    def _start_viewchange(self, target: int, now: int) -> list:
        self.vc_target = target
        self._timeout = min(self._timeout * 2, self.cfg.view_timeout * 16)
        cert_view, cert_value = -1, None
        if self.prepared_cert is not None:
            cert_view, _, cert_value = self.prepared_cert
        self.viewchanges.setdefault(target, {})[self.node] = (cert_view, cert_value)
        acts = self._bcast(MsgKind.VIEWCHANGE, view=target, value=cert_value,
                           cert_view=cert_view)
        acts += self._start_timer()
        return acts + self._check_newview(target, now)

    def _on_viewchange(self, msg: Msg, now: int) -> list:
        target = msg.view
        if target <= self.view:
            self.dropped += 1
            return []
        vcs = self.viewchanges.setdefault(target, {})
        if msg.sender in vcs:
            self.dropped += 1
            return []
        vcs[msg.sender] = (msg.cert_view, msg.value)
        acts = []
        if len(vcs) >= self.cfg.f_max + 1 and self.vc_target < target:
            acts += self._start_viewchange(target, now)
        return acts + self._check_newview(target, now)

    def _check_newview(self, target: int, now: int) -> list:
        if (self.cfg.leader(target) != self.node or target <= self.view
                or target in self.newview_done):
            return []
        vcs = self.viewchanges.get(target, {})
        if self.node not in vcs or len(vcs) < self.cfg.quorum:
            return []
        self.newview_done.add(target)
        best_view, best_value = -1, None
        for sender in sorted(vcs):
            cert_view, cert_value = vcs[sender]
            if cert_value is not None and cert_view > best_view:
                best_view, best_value = cert_view, cert_value
        value = best_value if best_value is not None else self.request_value
        if value is None:
            return []
        self.view = target
        d = codec.sha(value)
        self.proposals[target] = (d, value)
        acts = self._bcast(MsgKind.NEWVIEW, view=target, value=value, digest=d)
        acts += self._send_prepare(target, d, now)
        return acts + self._start_timer()

    def _on_newview(self, msg: Msg, now: int) -> list:
        if (msg.view < self.view or msg.sender != self.cfg.leader(msg.view)
                or msg.value is None or msg.digest != codec.sha(msg.value)):
            self.dropped += 1
            return []
        self.view = msg.view
        if msg.view not in self.proposals:
            self.proposals[msg.view] = (msg.digest, msg.value)
        elif self.proposals[msg.view][0] != msg.digest:
            self.dropped += 1
            return []
        d = self.proposals[msg.view][0]
        acts = self._send_prepare(msg.view, d, now)
        acts += self._check_decided(msg.view, d, now)
        return acts + self._start_timer()


# -- majority engine -------------------------------------------------------

class PaxosReplica(_Replica):
    """Single-decree proposer+acceptor+learner in one; ballot = (round, index)."""

    def __init__(self, cfg: ConsensusConfig, node: str, keystore: KeyStore,
                 initial_proposer: bool = False,
                 verified: dict[bytes, Msg | None] | None = None):
        super().__init__(cfg, node, keystore, verified)
        self.idx = cfg.index(node)
        self.initial_proposer = initial_proposer
        self.request_value: bytes | None = None
        self.promised: tuple[int, int] | None = None
        self.accepted: tuple[tuple[int, int], bytes] | None = None
        self.max_round_seen = 0
        self.current: tuple[int, int] | None = None
        self.phase = "idle"
        self.attempts = 0
        # ballot -> sender -> (accepted_round, accepted_index, accepted_value)
        self.promises: dict[tuple[int, int], dict[str, tuple[int, int, bytes | None]]] = {}
        self.accept_tally: dict[tuple[int, int, bytes], set[str]] = {}

    def _watchdog(self) -> list:
        """Deterministically staggered retry timer; index offsets avoid duels."""
        return self._set_timer(self.cfg.view_timeout * (self.idx + 1)
                               + self.cfg.view_timeout * self.cfg.n * self.attempts)

    def _saw_round(self, rnd: int) -> None:
        if rnd > self.max_round_seen:
            self.max_round_seen = rnd

    def step(self, event: SimEvent, now: int) -> list:
        if event.kind == "local":
            return self._on_request(event.payload, now)
        if event.kind == "timer":
            return self._on_timer(event.label, now)
        msg = self._accept(event)
        if msg is None:
            return []
        if msg.kind is MsgKind.P1A:
            return self._on_p1a(msg, now)
        if msg.kind is MsgKind.P1B:
            return self._on_p1b(msg, now)
        if msg.kind is MsgKind.P2A:
            return self._on_p2a(msg, now)
        if msg.kind is MsgKind.P2B:
            return self._on_p2b(msg, now)
        self.dropped += 1
        return []

    def _on_request(self, value: bytes, now: int) -> list:
        if self.request_value is not None:
            return []
        self.request_value = value
        if self.initial_proposer:
            return self._propose(now)
        return self._watchdog()

    def _on_timer(self, label: str, now: int) -> list:
        if not self._timer_live(label):
            return []
        return self._propose(now)

    def _propose(self, now: int) -> list:
        self.attempts += 1
        rnd = self.max_round_seen + 1
        self._saw_round(rnd)
        ballot = (rnd, self.idx)
        self.current = ballot
        self.phase = "phase1"
        self.promises[ballot] = {}
        acts = self._bcast(MsgKind.P1A, view=rnd, ballot_node=self.idx)
        own = Msg(self.cfg.instance_id, MsgKind.P1A, self.node, view=rnd,
                  ballot_node=self.idx)
        acts += self._on_p1a(own, now)
        return acts + self._watchdog()

    def _on_p1a(self, msg: Msg, now: int) -> list:
        ballot = (msg.view, msg.ballot_node)
        self._saw_round(msg.view)
        if self.promised is not None and ballot <= self.promised:
            self.dropped += 1
            return []
        self.promised = ballot
        acc_round, acc_idx, acc_value = -1, -1, None
        if self.accepted is not None:
            (acc_round, acc_idx), acc_value = self.accepted
        reply = Msg(self.cfg.instance_id, MsgKind.P1B, self.node, view=msg.view,
                    ballot_node=msg.ballot_node, value=acc_value,
                    cert_view=acc_round, cert_node=acc_idx)
        if msg.sender == self.node:
            return self._on_p1b(reply, now)
        return [Send(msg.sender, encode_msg(self.keystore, reply), MsgKind.P1B.value)]

    def _on_p1b(self, msg: Msg, now: int) -> list:
        ballot = (msg.view, msg.ballot_node)
        if self.current != ballot or self.phase != "phase1":
            self.dropped += 1
            return []
        reports = self.promises[ballot]
        if msg.sender in reports:
            self.dropped += 1
            return []
        reports[msg.sender] = (msg.cert_view, msg.cert_node, msg.value)
        if len(reports) < self.cfg.quorum:
            return []
        self.phase = "phase2"
        best: tuple[tuple[int, int], bytes] | None = None
        for sender in sorted(reports):
            acc_round, acc_idx, acc_value = reports[sender]
            if acc_value is not None and acc_round >= 0:
                if best is None or (acc_round, acc_idx) > best[0]:
                    best = ((acc_round, acc_idx), acc_value)
        value = best[1] if best is not None else self.request_value
        if value is None:
            return []
        acts = self._bcast(MsgKind.P2A, view=ballot[0], ballot_node=ballot[1],
                           value=value)
        own = Msg(self.cfg.instance_id, MsgKind.P2A, self.node, view=ballot[0],
                  ballot_node=ballot[1], value=value)
        return acts + self._on_p2a(own, now)

    def _on_p2a(self, msg: Msg, now: int) -> list:
        ballot = (msg.view, msg.ballot_node)
        self._saw_round(msg.view)
        if msg.value is None:
            self.dropped += 1
            return []
        if self.promised is not None and ballot < self.promised:
            self.dropped += 1
            return []
        self.promised = ballot
        self.accepted = (ballot, msg.value)
        acts = self._bcast(MsgKind.P2B, view=ballot[0], ballot_node=ballot[1],
                           value=msg.value)
        return acts + self._tally_accept(ballot, msg.value, self.node, now)

    def _on_p2b(self, msg: Msg, now: int) -> list:
        if msg.value is None:
            self.dropped += 1
            return []
        self._saw_round(msg.view)
        return self._tally_accept((msg.view, msg.ballot_node), msg.value,
                                  msg.sender, now)

    def _tally_accept(self, ballot, value: bytes, sender: str, now: int) -> list:
        key = (ballot[0], ballot[1], codec.sha(value))
        tally = self._count_vote(self.accept_tally, key, sender)
        if tally is None or self.decision is not None or len(tally) < self.cfg.quorum:
            return []
        self.phase = "decided"
        return self._decide(value, ballot[0], now,
                            f"round={ballot[0]} value={codec.short(value)}")


# -- instance driver -------------------------------------------------------

@dataclass
class InstanceResult:
    instance_id: str
    protocol: Protocol
    members: tuple[str, ...]
    decisions: dict[str, Decision]
    honest: tuple[str, ...]
    faulty: tuple[str, ...]
    stalled: tuple[str, ...]
    violations: tuple[str, ...]
    beyond_bound: bool
    sent: int
    delivered: int
    dropped: int
    in_flight: int
    ticks: int
    budget_exhausted: bool
    trace: tuple[str, ...]
    replica_drops: dict[str, int]     # node -> deliveries its replica dropped

    def honest_values(self) -> list[bytes]:
        return sorted({d.value for n, d in self.decisions.items() if n in self.honest})

    @property
    def agreed(self) -> bool:
        return not self.stalled and len(self.honest_values()) == 1


def run_instance(plan: SecurityPlan, members, value: bytes, keystore: KeyStore,
                 net_cfg: NetworkConfig | None = None, faults=(),
                 max_tick: int = 5000, view_timeout: int = DEFAULT_VIEW_TIMEOUT,
                 initial_proposers=None, instance_id: str = "inst") -> InstanceResult:
    """Run one consensus instance to quiescence or the tick budget and audit it."""
    cfg = config_from_plan(plan, members, instance_id, view_timeout)
    net = Network(net_cfg if net_cfg is not None else NetworkConfig(seed=0))
    if initial_proposers is None:
        initial_proposers = (cfg.members[0],)
    verified: dict[bytes, Msg | None] = {}
    replicas: dict[str, PBFTReplica | PaxosReplica] = {}
    for m in cfg.members:
        if plan.protocol is Protocol.PBFT:
            replicas[m] = PBFTReplica(cfg, m, keystore, verified)
        else:
            replicas[m] = PaxosReplica(cfg, m, keystore,
                                       initial_proposer=m in initial_proposers,
                                       verified=verified)
        net.register(m, replicas[m].step)
    for spec in faults:
        if spec.behavior is Behavior.EQUIVOCATE and spec.transform is None:
            spec = replace(spec, transform=make_equivocation_transform(keystore))
        net.inject_fault(spec)
    for m in cfg.members:
        net.schedule_local(m, 0, value, MsgKind.REQUEST.value)
    net.run_until(max_tick)

    decisions = {m: r.decision for m, r in replicas.items() if r.decision is not None}
    faulty = tuple(sorted({spec.node for spec in faults} & set(cfg.members)))
    honest = tuple(m for m in cfg.members if m not in faulty)
    stalled = tuple(m for m in honest if m not in decisions)
    values = sorted({d.value for n, d in decisions.items() if n in honest})
    violations: list[str] = []
    if len(values) > 1:
        violations.append("disagreement:" + ",".join(codec.short(v) for v in values))
    return InstanceResult(
        instance_id=cfg.instance_id,
        protocol=plan.protocol,
        members=cfg.members,
        decisions=decisions,
        honest=honest,
        faulty=faulty,
        stalled=stalled,
        violations=tuple(violations),
        beyond_bound=len(faulty) > plan.f_max,
        sent=net.sent,
        delivered=net.delivered,
        dropped=net.dropped,
        in_flight=net.in_flight(),
        ticks=net.now,
        budget_exhausted=net.budget_exhausted,
        trace=tuple(net.trace),
        replica_drops={m: r.dropped for m, r in replicas.items()},
    )
