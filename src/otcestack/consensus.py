"""Executable consensus engines driven over the simulated network.

Two single-decree engines share one message shape and envelope: a
three-phase Byzantine-tolerant protocol (pre-prepare / prepare / commit
with view changes) and a majority protocol (promise / accept with proposer
retries). Replicas run honest logic only; adversarial behavior is injected
by the network layer (crash, drop-all, delay-max, or per-recipient payload
rewriting for equivocation). Every message is a `cons` envelope of its
instance (see `keys`), opened on receipt; anything malformed, stale, or
from outside the instance or the group is dropped and counted, never
raised. The replicas of one instance share a memo of opened wires, by the
rule in `keys`.

Both engines take the quorum q = n - f_max of the security plan, whose
f_max is the protocol's fault bound, and both vote through a collector
(SBFT, Gueta et al., DSN 2019; HotStuff, Yin et al., PODC 2019; the
distinguished learner of Lamport's "Paxos Made Simple", §2.3): a voter
sends its signed vote to the collector only, and the collector, on q
matching votes, broadcasts one certificate that carries the q sorted
(voter, signature) pairs, each pair signing that voter's own vote body.
`verify_msg` checks a certificate with `plan.certificate_refusal`, once
per distinct wire. A fault-free decision costs 5(n - 1) sends in either
engine. The cost of the trade: when a collector crashes mid-phase nobody
else holds the votes, and the decision waits for a view change or the next
proposer.

The Byzantine engine's collector is the leader of the view. A replica
sends its PREPARE and COMMIT to that leader; the leader broadcasts
PREPARED on q prepares and COMMITTED on q commits. A replica that gets
PREPARED for its current view is prepared and votes COMMIT; a replica
decides on any COMMITTED. A VIEWCHANGE for view v goes to the leader of v
only, which joins the view change on f_max + 1 of them and announces the
view in a NEWVIEW on a full quorum. A replica that has asked for a later
view casts no vote in its current one (Castro & Liskov, OSDI '99, §4.4),
and every view change doubles its timeout.

The majority engine's collector is the ballot's owner: an acceptor sends
its P2B to the owner, and the owner decides on q of them and broadcasts
one LEARN.

A crash plan's fault model has no liars, so `run_instance` flags an
equivocating member (or any payload transform) of a majority group as
beyond the bound, however few faulty members there are.

The engines share one replica skeleton, `_Replica`: one event entry that
dispatches each verified message through the engine's table from kind to
handler, one way to send, one tally of sender -> report for every quorum
(where a repeated sender is a drop), one decision that keeps its
certificate, one rule for a decided replica, and one pick of the value to
re-propose. A decided replica only hands its certificate to whoever starts
a new round (a VIEWCHANGE, a P1A): it answers that with its own signed
certificate, so the straggler decides in one hop, and ignores every other
message. A replica reaches itself through that same table: its own
proposal, vote, promise or view change goes to the handler a peer's would
reach, a vote signed first, so every check a handler makes runs on the
replica's own message too. Only a collector acts on its own certificate
directly. The pick of the value is the rule a new view and a phase 1 have
in common: the value of the highest certificate among a quorum's reports,
else the replica's own request. Neither a message to a decided replica nor
a reply that reaches a collector after its quorum (a late promise or view
change) counts as a drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from . import codec
from .keys import SIG_LEN, KeyStore, envelope, seal, unseal
from .plan import Protocol, SecurityPlan, certificate_refusal
from .simnet import (Behavior, FaultSpec, Network, NetworkConfig, NetReport,
                     Record, Send, SetTimer, SimEvent)

DEFAULT_VIEW_TIMEOUT = 40


class MsgKind(str, Enum):
    REQUEST = "request"
    PREPREPARE = "preprepare"
    PREPARE = "prepare"
    PREPARED = "prepared"
    COMMIT = "commit"
    COMMITTED = "committed"
    VIEWCHANGE = "viewchange"
    NEWVIEW = "newview"
    P1A = "p1a"
    P1B = "p1b"
    P2A = "p2a"
    P2B = "p2b"
    LEARN = "learn"


# certificate kind -> the kind of vote each of its (voter, signature) pairs signs
VOTE_OF = {MsgKind.PREPARED: MsgKind.PREPARE, MsgKind.COMMITTED: MsgKind.COMMIT,
           MsgKind.LEARN: MsgKind.P2B}
_CERT_OF = {vote: cert for cert, vote in VOTE_OF.items()}


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
    cert: tuple[tuple[str, bytes], ...] = ()   # certificate: (voter, vote signature)
    # the signature a decoded message arrived with; not part of the body
    sig: bytes = field(default=b"", compare=False, repr=False)


def _fields(msg: Msg) -> tuple:
    """The envelope fields of `msg`; a certificate kind adds its pairs."""
    fields = ("cons", msg.instance, msg.sender, msg.kind.value, msg.view,
              msg.ballot_node, msg.value, msg.digest, msg.cert_view, msg.cert_node)
    return fields + (msg.cert,) if msg.kind in VOTE_OF else fields


def encode_msg(keystore: KeyStore, msg: Msg) -> bytes:
    return seal(keystore, *_fields(msg))


def _msg(instance: str, sender: str, kind_s: str, body: tuple, sig: bytes) -> Msg:
    """The message of an envelope's header and body; CodecError if malformed."""
    try:
        kind = MsgKind(kind_s)
    except ValueError as exc:
        raise codec.CodecError(f"unknown message kind {kind_s!r}") from exc
    certified = kind in VOTE_OF
    view, ballot_node, value, digest, cv, cn, *rest = codec.check_record(
        body, int, int, (bytes, type(None)), (bytes, type(None)), int, int,
        *((tuple,) if certified else ()))
    cert = tuple(codec.check_record(p, str, bytes) for p in rest[0]) if certified else ()
    return Msg(instance, kind, sender, view, ballot_node, value, digest, cv, cn, cert, sig)


def decode_msg(wire: bytes) -> Msg:
    """Decode without verifying the signature; CodecError on bad shape."""
    fields = codec.unpack(wire[:-SIG_LEN])
    _, instance, sender, kind_s = codec.check_record(fields[:4], "cons", str, str, str)
    return _msg(instance, sender, kind_s, fields[4:], wire[-SIG_LEN:])


def vote_body(cert: Msg, voter: str) -> bytes:
    """What `voter` signed when it cast the vote that `cert` certifies: the
    envelope of its own P2B for the ballot and value of a LEARN, of its own
    PREPARE or COMMIT for the view and digest of a PREPARED or COMMITTED."""
    kind = VOTE_OF[cert.kind]
    if kind is MsgKind.P2B:
        vote = Msg(cert.instance, kind, voter, cert.view, cert.ballot_node, cert.value)
    else:
        vote = Msg(cert.instance, kind, voter, cert.view, digest=cert.digest)
    return envelope(*_fields(vote))


def verify_msg(keystore: KeyStore, wire: bytes, instance: str, members,
               quorum: int) -> Msg | None:
    """The message of a wire that `unseal` opens as a `cons` envelope of
    `instance` from one of `members`, of a known kind and body shape, else
    None. A certificate must also carry a value (whose sha is the digest,
    for PREPARED and COMMITTED) and the vote signatures of `quorum`
    distinct members over that value or digest and its view or ballot."""
    opened = unseal(keystore, wire, "cons", instance, members)
    if opened is None:
        return None
    try:
        msg = _msg(instance, *opened, wire[-SIG_LEN:])
    except codec.CodecError:
        return None
    vote = VOTE_OF.get(msg.kind)
    if vote is None:
        return msg
    if msg.value is None or (vote is not MsgKind.P2B
                             and msg.digest != codec.sha(msg.value)):
        return None
    if certificate_refusal(quorum, members, msg.cert, keystore,
                           lambda voter: vote_body(msg, voter)) is not None:
        return None
    return msg


@dataclass(frozen=True)
class ConsensusConfig:
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
    return ConsensusConfig(ordered, plan.f_max, plan.quorum,
                           view_timeout, instance_id)


@dataclass(frozen=True)
class Decision:
    value: bytes
    decided_at: int
    view: int


# -- equivocation ----------------------------------------------------------

# Only proposal and vote payloads are rewritten. Recovery metadata
# (view-change reports, promise reports) and quorum certificates stay
# truthful: the fault model is a node lying about what it proposes and
# votes, not forging protocol evidence.
TRANSFORMABLE = frozenset({MsgKind.PREPREPARE, MsgKind.NEWVIEW, MsgKind.PREPARE,
                           MsgKind.COMMIT, MsgKind.P2A, MsgKind.P2B})


def _equivocate(keystore: KeyStore, digests: dict[bytes, bytes], payload: bytes) -> bytes:
    """`payload` as an odd-indexed recipient gets it: a value altered, its
    digest to match (kept in `digests` for a vote that carries only the
    digest), and signed again by the sender; any other payload as it is."""
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
            digests[digest] = codec.sha(alt)
            digest = digests[digest]
        value = alt
    elif digest is not None:
        digest = digests.get(digest, codec.sha(b"equivocate/" + digest))
    return encode_msg(keystore, replace(msg, value=value, digest=digest))


def make_equivocation_transform(keystore: KeyStore):
    """Per-recipient rewriter: odd-indexed recipients get `_equivocate`'s
    bytes, the same for each, so each payload is rewritten once."""
    digests: dict[bytes, bytes] = {}
    rewritten: dict[bytes, bytes] = {}     # payload -> what odd recipients get

    def transform(payload: bytes, dst: str, dst_index: int) -> bytes:
        if dst_index % 2 == 0:
            return payload
        if payload not in rewritten:
            rewritten[payload] = _equivocate(keystore, digests, payload)
        return rewritten[payload]

    return transform


# -- shared replica --------------------------------------------------------

class _Replica:
    """What both engines share: the event entry, signed sends and
    broadcasts that also reach this replica itself, generation-tagged
    timers, one tally for every quorum, one decision that keeps its
    certificate, and one rule for the value a new leader or proposer
    re-proposes.

    `step` takes the first request only and hands it to the engine's
    `_on_request`; it passes a timer to `_on_timeout` only while the timer
    is the newest and nothing is decided; it opens a delivery with
    `_accept` and dispatches it through the engine's table `_ON` from
    message kind to handler. A verified message of a kind the table lacks
    is a drop. Once decided, it answers a verified message of the engine's
    `_STRAGGLER` kind with `_answer` and ignores any other, without a drop.
    Each engine binds `step` in its own class, so each can be wrapped apart.
    `_send` and `_bcast` pass a message meant for this replica to the same
    table, without the network.

    `verified` maps a wire to what `verify_msg` made of it (its certificate
    checked too), shared by the replicas of one instance as `keys` says."""

    _ON: dict    # MsgKind -> handler(replica, msg, now), one table per engine
    _ROUND: str  # what a decision's trace note calls its view or round
    _STRAGGLER: MsgKind   # what a decided replica answers with its certificate

    def __init__(self, cfg: ConsensusConfig, node: str, keystore: KeyStore,
                 verified: dict[bytes, Msg | None] | None = None):
        self.cfg = cfg
        self.node = node
        self.keystore = keystore
        self.verified = {} if verified is None else verified
        self.request_value: bytes | None = None
        self.decision: Decision | None = None
        self.certificate: Msg | None = None    # this replica's own, once decided
        self._certificate_wire: bytes | None = None
        self.dropped = 0
        self._timer_gen = 0

    def step(self, event: SimEvent, now: int) -> list:
        if event.kind == "local":
            if self.request_value is not None:
                return []
            self.request_value = event.payload
            return self._on_request(now)
        if event.kind == "timer":
            return self._on_timeout(now) if self._timer_live(event.label) else []
        msg = self._accept(event)
        if msg is None:
            return []
        if self.decision is not None:
            return self._answer(msg.sender) if msg.kind is self._STRAGGLER else []
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
            return [Send(dst, encode_msg(self.keystore, msg), msg.kind.value)]
        if msg.kind in _CERT_OF:
            msg = replace(msg, sig=encode_msg(self.keystore, msg)[-SIG_LEN:])
        return self._ON[msg.kind](self, msg, now)

    def _bcast(self, kind: MsgKind, now: int, **fields) -> list:
        """Broadcast a signed `kind` message to every peer, then hand the
        same message to this replica's own handler."""
        msg = Msg(self.cfg.instance_id, kind, self.node, **fields)
        acts = self._to_all(encode_msg(self.keystore, msg), kind.value)
        return acts + self._ON[kind](self, msg, now)

    def _to_all(self, wire: bytes, label: str) -> list:
        return [Send(m, wire, label) for m in self.cfg.members if m != self.node]

    def _set_timer(self, delay: int) -> list:
        self._timer_gen += 1
        return [SetTimer(delay, f"t:{self._timer_gen}")]

    def _timer_live(self, label: str) -> bool:
        """True when `label` names the newest timer and nothing is decided."""
        return label == f"t:{self._timer_gen}" and self.decision is None

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
        """The value to re-propose after a quorum's `reports`, sender ->
        (certificate, value): the value of the highest certificate (tuples,
        compared as such), the first sender's in sorted order on a tie. A
        report with no value or a negative first entry certifies nothing;
        without a certified value, this replica's own request."""
        best = None
        for sender in sorted(reports):
            cert, value = reports[sender]
            if value is not None and cert[0] >= 0 and (best is None or cert > best[0]):
                best = (cert, value)
        return self.request_value if best is None else best[1]

    def _certify(self, kind: MsgKind, tally: dict, **fields) -> tuple[Msg, bytes]:
        """The `kind` certificate of a quorum's `tally`, voter -> signature,
        from this replica, and its signed wire."""
        cert = Msg(self.cfg.instance_id, kind, self.node,
                   cert=tuple(sorted(tally.items())), **fields)
        return cert, encode_msg(self.keystore, cert)

    def _decide(self, cert: Msg, now: int, how: str,
                wire: bytes | None = None) -> list:
        """Decide the value of `cert`, a certificate of a quorum's votes,
        keep it as this replica's own (with its `wire`, when this replica
        signed it), stop the timers, and trace it."""
        self.certificate = replace(cert, sender=self.node, sig=b"")
        self._certificate_wire = wire
        self.decision = Decision(cert.value, now, cert.view)
        self._timer_gen += 1
        return [Record("decision", f"{self._ROUND}={cert.view} "
                                   f"value={codec.short(cert.value)}{how}")]

    def _answer(self, dst: str) -> list:
        """Send `dst` this replica's own signed certificate, encoded once."""
        if self._certificate_wire is None:
            self._certificate_wire = encode_msg(self.keystore, self.certificate)
        return [Send(dst, self._certificate_wire, self.certificate.kind.value)]

    def _accept(self, event: SimEvent) -> Msg | None:
        """The verified message of a delivery from its signer, a member of
        this instance, or None, counted as a drop."""
        wire = event.payload
        try:
            msg = self.verified[wire]
        except KeyError:
            msg = self.verified[wire] = verify_msg(
                self.keystore, wire, self.cfg.instance_id, self.cfg.members, self.cfg.quorum)
        if msg is None or msg.sender != event.src:
            self.dropped += 1
            return None
        return msg


# -- byzantine-tolerant engine ---------------------------------------------

class PBFTReplica(_Replica):
    """Three-phase replica: single slot, rotating leader, view changes.
    Votes and view changes go to the leader of their view, which
    broadcasts the certificates the votes form."""

    _ROUND = "view"
    _STRAGGLER = MsgKind.VIEWCHANGE

    def __init__(self, cfg: ConsensusConfig, node: str, keystore: KeyStore,
                 verified: dict[bytes, Msg | None] | None = None):
        super().__init__(cfg, node, keystore, verified)
        self.view = 0
        self.proposals: dict[int, tuple[bytes, bytes]] = {}     # view -> (digest, value)
        # the leader's tallies: (PREPARE or COMMIT, view, digest) -> voter -> signature
        self.votes: dict[tuple[MsgKind, int, bytes], dict[str, bytes]] = {}
        self.voted: set[tuple[MsgKind, int]] = set()    # own votes: (kind, view)
        self.prepared_cert: tuple[int, bytes, bytes] | None = None
        # the leader's tallies: target view -> sender -> ((cert_view,), cert_value)
        self.viewchanges: dict[int, dict[str, tuple[tuple[int], bytes | None]]] = {}
        self.vc_target = 0
        self._timeout = cfg.view_timeout

    step = _Replica.step

    # protocol steps

    def _on_request(self, now: int) -> list:
        acts = self._set_timer(self._timeout)
        if self.node == self.cfg.leader(self.view):
            acts += self._propose(MsgKind.PREPREPARE, self.view, self.request_value, now)
        return acts

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
        return self._vote(MsgKind.PREPARE, msg.view, msg.digest, now)

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
        acts = self._to_all(wire, cert.kind.value)
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

    def _on_timeout(self, now: int) -> list:
        return self._start_viewchange(max(self.view, self.vc_target) + 1, now)

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
        other replica is a drop. Propose the NEWVIEW once this leader and a
        quorum have asked for the view; the leader enters the view as it
        handles that NEWVIEW itself."""
        target = msg.view
        if self.cfg.leader(target) != self.node:
            self.dropped += 1
            return []
        if target <= self.view:
            return []
        vcs = self._tally(self.viewchanges, target, msg.sender,
                          ((msg.cert_view,), msg.value))
        if vcs is None:
            return []
        if len(vcs) >= self.cfg.f_max + 1 and self.vc_target < target:
            return self._start_viewchange(target, now)
        if self.node not in vcs or len(vcs) < self.cfg.quorum:
            return []
        value = self._highest(vcs)
        if value is None:
            return []
        return self._propose(MsgKind.NEWVIEW, target, value, now)

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
        acts = self._vote(MsgKind.PREPARE, msg.view, msg.digest, now)
        return acts + self._set_timer(self._timeout)

    _ON = {MsgKind.PREPREPARE: _on_preprepare, MsgKind.PREPARE: _on_vote,
           MsgKind.COMMIT: _on_vote, MsgKind.PREPARED: _on_prepared,
           MsgKind.COMMITTED: _on_committed, MsgKind.VIEWCHANGE: _on_viewchange,
           MsgKind.NEWVIEW: _on_newview}


# -- majority engine -------------------------------------------------------

class PaxosReplica(_Replica):
    """Single-decree proposer+acceptor+learner in one; ballot = (round, index).

    An acceptor sends its signed P2B to the ballot's owner only. The owner
    decides on a quorum of matching P2Bs and broadcasts one LEARN that
    carries the value and the quorum's (acceptor, signature) pairs; a
    replica decides on a LEARN whose certificate verifies."""

    _ROUND = "round"
    _STRAGGLER = MsgKind.P1A

    def __init__(self, cfg: ConsensusConfig, node: str, keystore: KeyStore,
                 initial_proposer: bool = False,
                 verified: dict[bytes, Msg | None] | None = None):
        super().__init__(cfg, node, keystore, verified)
        self.idx = cfg.index(node)
        self.initial_proposer = initial_proposer
        self.promised: tuple[int, int] | None = None
        self.accepted: tuple[tuple[int, int], bytes] | None = None
        self.max_round_seen = 0
        self.current: tuple[int, int] | None = None    # the ballot in phase 1
        self.attempts = 0
        # ballot -> sender -> ((accepted_round, accepted_index), accepted_value)
        self.promises: dict[tuple[int, int], dict[str, tuple[tuple[int, int], bytes | None]]] = {}
        # (round, index, value digest) of an own ballot -> acceptor -> P2B signature
        self.accepts: dict[tuple[int, int, bytes], dict[str, bytes]] = {}

    step = _Replica.step

    def _watchdog(self) -> list:
        """Deterministically staggered retry timer; index offsets avoid duels."""
        return self._set_timer(self.cfg.view_timeout * (self.idx + 1)
                               + self.cfg.view_timeout * self.cfg.n * self.attempts)

    def _saw_round(self, rnd: int) -> None:
        if rnd > self.max_round_seen:
            self.max_round_seen = rnd

    def _on_request(self, now: int) -> list:
        return self._propose(now) if self.initial_proposer else self._watchdog()

    def _on_timeout(self, now: int) -> list:
        return self._propose(now)

    def _propose(self, now: int) -> list:
        self.attempts += 1
        rnd = self.max_round_seen + 1
        self._saw_round(rnd)
        ballot = (rnd, self.idx)
        self.current = ballot
        return (self._bcast(MsgKind.P1A, now, view=rnd, ballot_node=self.idx)
                + self._watchdog())

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
        return self._send(msg.sender, reply, now)

    def _on_p1b(self, msg: Msg, now: int) -> list:
        ballot = (msg.view, msg.ballot_node)
        if self.current != ballot:
            # a promise after the ballot's quorum is late, not a drop
            if len(self.promises.get(ballot, ())) < self.cfg.quorum:
                self.dropped += 1
            return []
        reports = self._tally(self.promises, ballot, msg.sender,
                              ((msg.cert_view, msg.cert_node), msg.value))
        if reports is None or len(reports) < self.cfg.quorum:
            return []
        self.current = None
        # this replica's acceptor has since promised a higher ballot and
        # would refuse this one's P2A: drop it, the watchdog retries higher
        if self.promised is not None and ballot < self.promised:
            return []
        value = self._highest(reports)
        if value is None:
            return []
        return self._bcast(MsgKind.P2A, now, view=ballot[0], ballot_node=ballot[1],
                           value=value)

    def _on_p2a(self, msg: Msg, now: int) -> list:
        """Accept the value of a ballot its sender owns, unless promised to a
        higher one, and sign the P2B for the owner."""
        ballot = (msg.view, msg.ballot_node)
        self._saw_round(msg.view)
        if msg.value is None or self.cfg.index(msg.sender) != msg.ballot_node:
            self.dropped += 1
            return []
        if self.promised is not None and ballot < self.promised:
            self.dropped += 1
            return []
        self.promised = ballot
        self.accepted = (ballot, msg.value)
        vote = Msg(self.cfg.instance_id, MsgKind.P2B, self.node, view=ballot[0],
                   ballot_node=ballot[1], value=msg.value)
        return self._send(msg.sender, vote, now)

    def _on_p2b(self, msg: Msg, now: int) -> list:
        """Count a signed accept of one of this replica's own ballots; a P2B
        for a ballot it does not own is a drop. On a quorum, decide and
        broadcast the LEARN that carries the quorum's signatures."""
        if msg.value is None or msg.ballot_node != self.idx:
            self.dropped += 1
            return []
        self._saw_round(msg.view)
        ballot = (msg.view, msg.ballot_node)
        tally = self._tally(self.accepts, (*ballot, codec.sha(msg.value)),
                            msg.sender, msg.sig)
        if tally is None or len(tally) != self.cfg.quorum:
            return []
        cert, wire = self._certify(MsgKind.LEARN, tally, view=ballot[0],
                                   ballot_node=ballot[1], value=msg.value)
        return (self._decide(cert, now, "", wire)
                + self._to_all(wire, MsgKind.LEARN.value))

    def _on_learn(self, msg: Msg, now: int) -> list:
        """Decide on a LEARN; `verify_msg` has checked its certificate."""
        return self._decide(msg, now, " learned")

    _ON = {MsgKind.P1A: _on_p1a, MsgKind.P1B: _on_p1b, MsgKind.P2A: _on_p2a,
           MsgKind.P2B: _on_p2b, MsgKind.LEARN: _on_learn}


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
                 initial_proposers=None, instance_id: str = "inst") -> InstanceResult:
    """Run one consensus instance to quiescence or the tick budget and audit it."""
    cfg = config_from_plan(plan, members, instance_id, view_timeout)
    net = Network(net_cfg)
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
    faulty = tuple(sorted({spec.node for spec in faults}))
    # a crash plan bets that no member lies: a rewritten payload is outside it
    out_of_model = plan.protocol is Protocol.PAXOS and any(
        spec.behavior is Behavior.EQUIVOCATE or spec.transform is not None
        for spec in faults)
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
