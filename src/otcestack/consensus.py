"""The consensus engine, driven over the simulated network.

One single-decree engine serves both security plans: views with a rotating
leader, who collects the votes, and view changes, which is Viewstamped
Replication (Liskov & Cowling, "Viewstamped Replication Revisited", 2012).
Under a byzantine plan it is PBFT (Castro & Liskov, OSDI '99): a voter
sends its signed PREPARE, then its COMMIT, to the view's leader only, and
the leader, on q = n - f_max matching votes, broadcasts one certificate,
PREPARED or COMMITTED, that carries the q sorted (voter, signature) pairs
(SBFT, Gueta et al., DSN 2019; HotStuff, Yin et al., PODC 2019). A replica
votes COMMIT on a PREPARED of its view and decides on any COMMITTED. A crash
plan has no liars, so it has no PREPARE round: accepting the leader's
PREPREPARE is the COMMIT vote, and the accepted (view, digest, value) is
what the replica's next VIEWCHANGE reports. A view change is then
Paxos's phase 1 with the view's leader as proposer, and view 0, below which
nothing was accepted, needs none: the crash plan is Multi-Paxos in VR form
(Lamport, "Paxos Made Simple", §3; Van Renesse & Altinbuken, "Paxos Made
Moderately Complex", ACM CSUR 2015). A fault-free decision costs 5(n - 1)
sends under a byzantine plan and 3(n - 1) under a crash plan. The cost of
one collector: when the leader crashes mid-phase nobody else holds the
votes, and the decision waits for a view change.

A VIEWCHANGE for view v goes to the leader of v only, which joins the view
change on f_max + 1 of them and, on a full quorum, proposes v's PREPREPARE:
the value of the highest view reported, else its own request. A replica
enters v on that proposal, PBFT's NEW-VIEW (Castro & Liskov, §4.4), and
casts no vote in a view once it has asked for a later one; every view
change doubles its timeout.

The network injects crash, drop-all and delay-max; a lie is the replica's
own: from the tick its `lie_from` names, an equivocating replica sends each
odd-indexed peer a rewritten copy of its proposals and votes (see
`_equivocate`). A crash plan bets that no member lies, so `run_instance`
flags an equivocating member of its group as beyond the bound, however few
faulty members there are. Every message is a `cons` envelope of its
instance (see `keys`), opened on receipt; anything malformed, stale, or
from outside the instance or the group is dropped and counted, never
raised. One table, `_KIND_OF`, maps each kind string to its kind and its
body's shape (a certificate kind's, built once from `VOTE_OF`, ends with
its pairs), so opening a body is one lookup and one `check_record`;
`verify_msg` checks a certificate with `plan.certificate_refusal`, once per
distinct wire while a copy of it is queued.

`Replica` is the engine. `PBFTReplica` and `PaxosReplica` are the byzantine
and the crash plan's replica: each binds `step` in its own class, because
the benchmark's tracer wraps each by its class name, and the crash plan's
holds its switch and a table without PREPARE and PREPARED, so either is a
counted drop there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter

from . import codec
from .keys import SIG_LEN, KeyStore, Peer, envelope, seal, unseal
from .plan import Protocol, SecurityPlan, certificate_refusal
from .simnet import (Behavior, Network, NetworkConfig, NetReport, Record, Send,
                     SetTimer, SimEvent)

DEFAULT_VIEW_TIMEOUT = 40


class MsgKind(str, Enum):
    REQUEST = "request"
    PREPREPARE = "preprepare"
    PREPARE = "prepare"
    PREPARED = "prepared"
    COMMIT = "commit"
    COMMITTED = "committed"
    VIEWCHANGE = "viewchange"


# certificate kind -> the kind of vote each of its (voter, signature) pairs signs
VOTE_OF = {MsgKind.PREPARED: MsgKind.PREPARE, MsgKind.COMMITTED: MsgKind.COMMIT}
_CERT_OF = {vote: cert for cert, vote in VOTE_OF.items()}
# the body every message's envelope ends with: view, value, digest, cert_view
_BODY = (int, (bytes, type(None)), (bytes, type(None)), int)
# a wire's kind string -> its kind and the shape of its body, which for a
# certificate kind ends with its (voter, signature) pairs; exactly the
# members' values, so a member's name, a padded value or an empty string
# is no kind
_KIND_OF = {kind.value: (kind, _BODY + (tuple,) if kind in VOTE_OF else _BODY)
            for kind in MsgKind}


# Frozen, since the network's wire memo hands one decoded Msg to every
# replica that a copy of its wire reaches while another is queued; slotted,
# since one is built for each message sent or opened.
@dataclass(frozen=True, slots=True)
class Msg:
    instance: str
    kind: MsgKind
    sender: str
    view: int = 0
    value: bytes | None = None
    digest: bytes | None = None
    cert_view: int = -1      # viewchange: the view of the value it reports
    cert: tuple[tuple[str, bytes], ...] = ()   # certificate: (voter, vote signature)
    # the signature a decoded message arrived with; not part of the body
    sig: bytes = field(default=b"", compare=False, repr=False)


def _fields(msg: Msg) -> tuple:
    """The envelope fields of `msg`; a certificate kind adds its pairs."""
    fields = ("cons", msg.instance, msg.sender, msg.kind._value_, msg.view,
              msg.value, msg.digest, msg.cert_view)
    return fields + (msg.cert,) if msg.kind in VOTE_OF else fields


def encode_msg(keystore: KeyStore, msg: Msg) -> bytes:
    return seal(keystore, *_fields(msg))


def _msg(instance: str, sender: str, kind_s: str, body: tuple, sig: bytes) -> Msg:
    """The message of an envelope's header and body; CodecError if malformed."""
    got = _KIND_OF.get(kind_s)
    if got is None:
        raise codec.CodecError(f"unknown message kind {kind_s!r}")
    kind, shape = got
    view, value, digest, cert_view, *cert = codec.check_record(body, shape)
    cert = tuple(codec.check_record(p, codec.PAIR) for p in cert[0]) if cert else ()
    return Msg(instance, kind, sender, view, value, digest, cert_view, cert, sig)


def vote_body(cert: Msg, voter: str) -> bytes:
    """What `voter` signed when it cast the vote that `cert` certifies: the
    envelope of its own PREPARE or COMMIT for the view and digest of a
    PREPARED or COMMITTED. The vote's envelope fields, as `_fields` gives
    them for that vote, are packed directly, without building the vote."""
    return envelope("cons", cert.instance, voter, VOTE_OF[cert.kind]._value_,
                    cert.view, None, cert.digest, -1)


def verify_msg(keystore: KeyStore, wire: bytes, instance: str, members,
               quorum: int) -> Msg | None:
    """The message of a wire that `unseal` opens as a `cons` envelope of
    `instance` from one of `members`, of a known kind and body shape, else
    None. A certificate must also carry a value whose sha is its digest,
    and the vote signatures of `quorum` distinct members over that digest
    and its view."""
    opened = unseal(keystore, wire, "cons", instance, members)
    if opened is None:
        return None
    try:
        msg = _msg(instance, *opened, wire[-SIG_LEN:])
    except codec.CodecError:
        return None
    if msg.kind not in VOTE_OF:
        return msg
    if msg.value is None or msg.digest != codec.sha(msg.value):
        return None
    if certificate_refusal(quorum, members, msg.cert, keystore,
                           lambda voter: vote_body(msg, voter)) is not None:
        return None
    return msg


@dataclass(frozen=True)
class ConsensusConfig:
    """An instance's group and bounds. `member_set` and the position map
    behind `index` are built once from `members`, so a membership check
    or an index costs one hash lookup whatever the group's size."""
    members: tuple[str, ...]
    f_max: int
    quorum: int
    view_timeout: int
    instance_id: str
    member_set: frozenset[str] = field(init=False, repr=False, compare=False)
    _position: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "member_set", frozenset(self.members))
        object.__setattr__(self, "_position", {m: i for i, m in enumerate(self.members)})

    @property
    def n(self) -> int:
        return len(self.members)

    def index(self, node: str) -> int:
        return self._position[node]

    def leader(self, view: int) -> str:
        return self.members[view % self.n]


def config_from_plan(plan: SecurityPlan, members, instance_id: str,
                     view_timeout: int = DEFAULT_VIEW_TIMEOUT) -> ConsensusConfig:
    ordered = tuple(sorted(members))
    if len(ordered) != plan.n:
        raise ValueError(f"plan for n={plan.n} but {len(ordered)} members")
    return ConsensusConfig(ordered, plan.f_max, plan.quorum,
                           view_timeout, instance_id)


@dataclass(frozen=True)
class Decision:
    value: bytes
    decided_at: int
    view: int


# -- equivocation ----------------------------------------------------------

# An equivocating replica rewrites only its proposals and votes. Its view
# change reports and quorum certificates stay truthful: the fault model is
# a node lying about what it proposes and votes, not forging protocol
# evidence.
TRANSFORMABLE = frozenset({MsgKind.PREPREPARE, MsgKind.PREPARE, MsgKind.COMMIT})


def _equivocate(digests: dict[bytes, bytes], msg: Msg) -> Msg:
    """`msg` as an equivocator tells it to an odd-indexed peer: its value
    altered and its digest to match, kept in `digests` for a later vote that
    carries only the digest."""
    value, digest = msg.value, msg.digest
    if value is not None:
        alt = codec.sha(b"equivocate/" + value)
        if digest is not None and digest == codec.sha(value):
            digests[digest] = codec.sha(alt)
            digest = digests[digest]
        value = alt
    elif digest is not None:
        digest = digests.get(digest, codec.sha(b"equivocate/" + digest))
    return replace(msg, value=value, digest=digest)


# -- the replica -----------------------------------------------------------

class Replica(Peer):
    """The engine's replica: single slot, rotating leader, view changes.
    Votes and view changes go to the leader of their view, which
    broadcasts the certificates the votes form.

    It takes the first request only; it acts on a timer only while the
    timer is the newest and nothing is decided; it opens a delivery with
    `verify_msg` (the certificate checked too) and dispatches it through the
    table `_ON` from message kind to handler. A verified message of a kind
    the table lacks is a drop. Once decided, it answers a VIEWCHANGE with
    its own certificate (`_answer`), so a straggler decides in one hop, and
    ignores any other message, without a drop. `_send` and `_bcast` pass a
    message meant for this replica to the same table, without the network,
    a vote signed first, so every check a handler makes runs on the
    replica's own message too; only the leader acts on its own certificate
    directly. Every view's proposal is its leader's PREPREPARE. `_CRASH` is
    the plan's one switch: under a crash plan a proposal is accepted with a
    COMMIT, not a PREPARE (`_accept`).

    An honest replica's `lie_from` is None. An equivocator's is the tick
    from which `_send` and `_bcast` hand each peer `_lie`'s wire: a
    rewritten one for an odd-indexed peer."""

    _CRASH = False
    _SIGNER = attrgetter("sender")

    def __init__(self, cfg: ConsensusConfig, node: str, keystore: KeyStore,
                 verified: dict[bytes, Msg | None] | None = None):
        super().__init__(node, keystore, cfg.members, verified)
        self.cfg = cfg
        self.request_value: bytes | None = None
        self.decision: Decision | None = None
        self.certificate: Msg | None = None    # this replica's own, once decided
        self._certificate_wire: bytes | None = None
        self._timer_gen = 0
        self.lie_from: int | None = None
        self._lies: dict[bytes, bytes] = {}     # honest wire -> what odd peers get
        self._lie_digests: dict[bytes, bytes] = {}     # see `_equivocate`
        self.view = 0
        self.proposals: dict[int, tuple[bytes, bytes]] = {}     # view -> (digest, value)
        # the leader's tallies: (PREPARE or COMMIT, view, digest) -> voter -> signature
        self.votes: dict[tuple[MsgKind, int, bytes], dict[str, bytes]] = {}
        self.voted: set[tuple[MsgKind, int]] = set()    # own votes: (kind, view)
        # (view, digest, value) a VIEWCHANGE reports: of the last PREPARED
        # (byzantine plan) or the last accepted proposal (crash plan)
        self.prepared_cert: tuple[int, bytes, bytes] | None = None
        # the leader's tallies: target view -> sender -> (cert_view, cert_value)
        self.viewchanges: dict[int, dict[str, tuple[int, bytes | None]]] = {}
        self.vc_target = 0
        self._timeout = cfg.view_timeout

    def _on_local(self, event: SimEvent, now: int) -> list:
        """Take the first request: start the view timer, and propose the
        request if this replica leads the view."""
        if self.request_value is not None:
            return []
        self.request_value = event.payload
        acts = self._set_timer(self._timeout)
        if self.node == self.cfg.leader(self.view):
            acts += self._propose(MsgKind.PREPREPARE, self.view, self.request_value, now)
        return acts

    def _on_timer(self, event: SimEvent, now: int) -> list:
        if event.label != f"t:{self._timer_gen}" or self.decision is not None:
            return []
        return self._start_viewchange(max(self.view, self.vc_target) + 1, now)

    def _open(self, wire: bytes) -> Msg | None:
        return verify_msg(self.keystore, wire, self.cfg.instance_id, self.cfg.member_set,
                          self.cfg.quorum)

    def _on_msg(self, msg: Msg, now: int) -> list:
        if self.decision is not None:
            return self._answer(msg.sender) if msg.kind is MsgKind.VIEWCHANGE else []
        handler = self._ON.get(msg.kind)
        if handler is None:
            self.dropped += 1
            return []
        return handler(self, msg, now)

    def _send(self, dst: str, msg: Msg, now: int) -> list:
        """One signed Send of `msg` to a peer `dst`; to this replica itself,
        `msg` goes to its handler in `_ON`, signed first if it is a vote,
        whose signature goes into the certificate."""
        if dst != self.node:
            wire = encode_msg(self.keystore, msg)
            if self.lie_from is not None:
                wire = self._lie(msg, wire, dst, now)
            return [Send(dst, wire, msg.kind._value_)]
        if msg.kind in _CERT_OF:
            msg = replace(msg, sig=encode_msg(self.keystore, msg)[-SIG_LEN:])
        return self._ON[msg.kind](self, msg, now)

    def _bcast(self, kind: MsgKind, now: int, **fields) -> list:
        """Broadcast a signed `kind` message to every peer, then hand the
        same message to this replica's own handler."""
        msg = Msg(self.cfg.instance_id, kind, self.node, **fields)
        wire, label = encode_msg(self.keystore, msg), kind._value_
        if self.lie_from is None:
            acts = self._to_all(wire, label)
        else:
            acts = [Send(m, self._lie(msg, wire, m, now), label)
                    for m in self.members if m != self.node]
        return acts + self._ON[kind](self, msg, now)

    def _lie(self, msg: Msg, wire: bytes, dst: str, now: int) -> bytes:
        """What this equivocator sends peer `dst` in place of `wire`, the
        honest wire of `msg`: from tick `lie_from` on, an odd-indexed peer
        gets a proposal or vote rewritten by `_equivocate` and signed, once
        per honest wire; else `wire`."""
        if (now < self.lie_from or not self.cfg.index(dst) % 2
                or msg.kind not in TRANSFORMABLE):
            return wire
        lie = self._lies.get(wire)
        if lie is None:
            lie = self._lies[wire] = encode_msg(
                self.keystore, _equivocate(self._lie_digests, msg))
        return lie

    def _to_all(self, wire: bytes, label: str) -> list:
        return [Send(m, wire, label) for m in self.members if m != self.node]

    def _set_timer(self, delay: int) -> list:
        self._timer_gen += 1
        return [SetTimer(delay, f"t:{self._timer_gen}")]

    def _tally(self, tallies: dict, key, sender: str, report=None) -> dict | None:
        """Record `sender`'s `report` in the tally under `key`, a map sender
        -> report, and return that tally; a sender already in it is a drop,
        and gives None."""
        tally = tallies.setdefault(key, {})
        if sender in tally:
            self.dropped += 1
            return None
        tally[sender] = report
        return tally

    def _highest(self, reports: dict) -> bytes | None:
        """The value a new leader proposes after a quorum's view changes,
        `reports` sender -> (cert_view, value): the value of the highest
        cert_view, the first sender's in sorted order on a tie. A report
        with no value or a negative view certifies nothing; without a
        certified value, this replica's own request."""
        best_view, best = -1, None
        for sender in sorted(reports):
            cert_view, value = reports[sender]
            if value is not None and cert_view > best_view:
                best_view, best = cert_view, value
        return self.request_value if best is None else best

    def _certify(self, kind: MsgKind, tally: dict, **fields) -> tuple[Msg, bytes]:
        """The `kind` certificate of a quorum's `tally`, voter -> signature,
        from this replica, and its signed wire."""
        cert = Msg(self.cfg.instance_id, kind, self.node,
                   cert=tuple(sorted(tally.items())), **fields)
        return cert, encode_msg(self.keystore, cert)

    def _decide(self, cert: Msg, now: int, how: str,
                wire: bytes | None = None) -> list:
        """Decide the value of `cert`, a COMMITTED, keep it as this
        replica's own (with its `wire`, when this replica signed it), stop
        the timers, and trace it."""
        self.certificate = Msg(cert.instance, cert.kind, self.node, cert.view,
                               cert.value, cert.digest, cert.cert_view, cert.cert)
        self._certificate_wire = wire
        self.decision = Decision(cert.value, now, cert.view)
        self._timer_gen += 1
        return [Record("decision", f"view={cert.view} "
                                   f"value={codec.short(cert.value)}{how}")]

    def _answer(self, dst: str) -> list:
        """Send `dst` this replica's own signed certificate, encoded once."""
        if self._certificate_wire is None:
            self._certificate_wire = encode_msg(self.keystore, self.certificate)
        return [Send(dst, self._certificate_wire, self.certificate.kind._value_)]

    # protocol steps

    def _propose(self, kind: MsgKind, view: int, value: bytes, now: int) -> list:
        return self._bcast(kind, now, view=view, value=value, digest=codec.sha(value))

    def _vote(self, kind: MsgKind, view: int, d: bytes, now: int) -> list:
        """Cast this replica's one `kind` vote of `view`, for digest `d`, to
        the view's leader; none once this replica asked for a later view."""
        if (kind, view) in self.voted or self.vc_target > view:
            return []
        self.voted.add((kind, view))
        vote = Msg(self.cfg.instance_id, kind, self.node, view=view, digest=d)
        return self._send(self.cfg.leader(view), vote, now)

    def _accept(self, msg: Msg, now: int) -> list:
        """Vote for `msg`, the leader's proposal of the current view: a
        PREPARE under a byzantine plan. Under a crash plan no member lies,
        so accepting is the COMMIT vote, and the proposal is what this
        replica's next VIEWCHANGE reports."""
        if not self._CRASH:
            return self._vote(MsgKind.PREPARE, msg.view, msg.digest, now)
        self.prepared_cert = (msg.view, msg.digest, msg.value)
        return self._vote(MsgKind.COMMIT, msg.view, msg.digest, now)

    def _on_preprepare(self, msg: Msg, now: int) -> list:
        """Accept the leader's proposal of the current view, or of a later
        view, entering it on a fresh timer; any other proposal is a drop."""
        if (msg.view < self.view or msg.sender != self.cfg.leader(msg.view)
                or msg.value is None or msg.digest != codec.sha(msg.value)):
            self.dropped += 1
            return []
        if msg.view in self.proposals:
            if self.proposals[msg.view][0] != msg.digest:
                self.dropped += 1     # leader equivocation; keep the first
            return []
        self.proposals[msg.view] = (msg.digest, msg.value)
        if msg.view == self.view:
            return self._accept(msg, now)
        self.view = msg.view
        return self._accept(msg, now) + self._set_timer(self._timeout)

    def _on_vote(self, msg: Msg, now: int) -> list:
        """Count a signed vote of a view this replica leads; a vote sent to
        any other replica is a drop. On the quorum-th vote for the digest
        this leader proposed in the view, broadcast the certificate the
        votes form and act on it: prepared, vote COMMIT; committed, decide."""
        view, d = msg.view, msg.digest
        if self.cfg.leader(view) != self.node or view < self.view or d is None:
            self.dropped += 1
            return []
        tally = self._tally(self.votes, (msg.kind, view, d), msg.sender, msg.sig)
        prop = self.proposals.get(view)
        if (tally is None or len(tally) != self.cfg.quorum
                or prop is None or prop[0] != d):
            return []
        cert, wire = self._certify(_CERT_OF[msg.kind], tally, view=view,
                                   value=prop[1], digest=d)
        acts = self._to_all(wire, cert.kind._value_)
        if msg.kind is MsgKind.COMMIT:
            return acts + self._decide(cert, now, "", wire)
        return acts + self._on_prepared(cert, now)

    def _on_prepared(self, msg: Msg, now: int) -> list:
        """Be prepared on a PREPARED of the current view, whose certificate
        `verify_msg` has checked, and vote COMMIT."""
        if msg.view != self.view:
            self.dropped += 1
            return []
        self.prepared_cert = (msg.view, msg.digest, msg.value)
        return self._vote(MsgKind.COMMIT, msg.view, msg.digest, now)

    def _on_committed(self, msg: Msg, now: int) -> list:
        """Decide on a COMMITTED, whose certificate `verify_msg` has
        checked: the leader's broadcast, or a decided peer's answer."""
        how = "" if msg.sender == self.cfg.leader(msg.view) else " adopted"
        return self._decide(msg, now, how)

    def _start_viewchange(self, target: int, now: int) -> list:
        self.vc_target = target
        self._timeout *= 2
        cert_view, cert_value = -1, None
        if self.prepared_cert is not None:
            cert_view, _, cert_value = self.prepared_cert
        vc = Msg(self.cfg.instance_id, MsgKind.VIEWCHANGE, self.node, view=target,
                 value=cert_value, cert_view=cert_view)
        return self._send(self.cfg.leader(target), vc, now) + self._set_timer(self._timeout)

    def _on_viewchange(self, msg: Msg, now: int) -> list:
        """Tally a view change to a view this replica leads; one to a view
        it has already entered is late and ignored, and one sent to any
        other replica is a drop. Propose the view's PREPREPARE once this
        leader and a quorum have asked for the view; the leader enters the
        view as it handles that proposal itself."""
        target = msg.view
        if self.cfg.leader(target) != self.node:
            self.dropped += 1
            return []
        if target <= self.view:
            return []
        vcs = self._tally(self.viewchanges, target, msg.sender,
                          (msg.cert_view, msg.value))
        if vcs is None:
            return []
        if len(vcs) >= self.cfg.f_max + 1 and self.vc_target < target:
            return self._start_viewchange(target, now)
        if self.node not in vcs or len(vcs) < self.cfg.quorum:
            return []
        value = self._highest(vcs)
        if value is None:
            return []
        return self._propose(MsgKind.PREPREPARE, target, value, now)

    _ON = {MsgKind.PREPREPARE: _on_preprepare, MsgKind.PREPARE: _on_vote,
           MsgKind.COMMIT: _on_vote, MsgKind.PREPARED: _on_prepared,
           MsgKind.COMMITTED: _on_committed, MsgKind.VIEWCHANGE: _on_viewchange}


class PBFTReplica(Replica):
    """The byzantine plan's replica."""

    step = Peer.step


class PaxosReplica(Replica):
    """The crash plan's replica: the engine without its PREPARE round."""

    step = Peer.step
    _CRASH = True
    _ON = {kind: handler for kind, handler in Replica._ON.items()
           if kind not in (MsgKind.PREPARE, MsgKind.PREPARED)}


# -- instance driver -------------------------------------------------------

@dataclass
class InstanceResult(NetReport):
    instance_id: str
    protocol: Protocol
    members: tuple[str, ...]
    decisions: dict[str, Decision]
    honest: tuple[str, ...]
    faulty: tuple[str, ...]
    stalled: tuple[str, ...]
    violations: tuple[str, ...]
    beyond_bound: bool
    replica_drops: dict[str, int]     # node -> deliveries its replica dropped

    def honest_values(self) -> list[bytes]:
        return sorted({d.value for n, d in self.decisions.items() if n in self.honest})

    @property
    def agreed(self) -> bool:
        return not self.stalled and len(self.honest_values()) == 1


def run_instance(plan: SecurityPlan, members, value: bytes, keystore: KeyStore,
                 net_cfg: NetworkConfig = NetworkConfig(), faults=(),
                 max_tick: int = 5000, view_timeout: int = DEFAULT_VIEW_TIMEOUT,
                 instance_id: str = "inst") -> InstanceResult:
    """Run one consensus instance to quiescence or the tick budget and audit it."""
    cfg = config_from_plan(plan, members, instance_id, view_timeout)
    net = Network(net_cfg)
    cls = PBFTReplica if plan.protocol is Protocol.PBFT else PaxosReplica
    replicas = {m: cls(cfg, m, keystore, net.memo) for m in cfg.members}
    for spec in faults:
        if spec.behavior is Behavior.EQUIVOCATE and spec.node in replicas:
            replicas[spec.node].lie_from = spec.at_tick
    net.start({m: r.step for m, r in replicas.items()}, faults,
              value, MsgKind.REQUEST.value, max_tick)

    decisions = {m: r.decision for m, r in replicas.items() if r.decision is not None}
    faulty = tuple(sorted({spec.node for spec in faults}))
    # a crash plan bets that no member lies: an equivocator is outside it
    out_of_model = plan.protocol is Protocol.PAXOS and any(
        spec.behavior is Behavior.EQUIVOCATE for spec in faults)
    honest = tuple(m for m in cfg.members if m not in faulty)
    stalled = tuple(m for m in honest if m not in decisions)
    values = sorted({d.value for n, d in decisions.items() if n in honest})
    violations: list[str] = []
    if len(values) > 1:
        violations.append("disagreement:" + ",".join(codec.short(v) for v in values))
    return net.report(
        InstanceResult,
        instance_id=cfg.instance_id,
        protocol=plan.protocol,
        members=cfg.members,
        decisions=decisions,
        honest=honest,
        faulty=faulty,
        stalled=stalled,
        violations=tuple(violations),
        beyond_bound=len(faulty) > plan.f_max or out_of_model,
        replica_drops={m: r.dropped for m, r in replicas.items()},
    )
