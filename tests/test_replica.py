"""What the one consensus replica does under either plan: the drop counts
of the event entry, the timer a replica acts on, what a decided replica
answers, the duplicate check of a tally, which value a new leader
re-proposes, and the one way a replica reaches itself: its own proposals,
votes and reports go through the handler table, like a peer's. Last, what
an equivocating replica tells its even- and odd-indexed peers, before and
from its fault's tick."""

from collections import Counter
from dataclasses import replace

import pytest

from conftest import decode_msg
from otcestack import codec
from otcestack.consensus import (VOTE_OF, Msg, MsgKind, PaxosReplica, PBFTReplica,
                                 config_from_plan, encode_msg, run_instance,
                                 verify_msg, vote_body)
from otcestack.keys import SIG_LEN, KeyStore
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import Behavior, FaultSpec, Send, SetTimer, SimEvent

MEMBERS4 = ("r0", "r1", "r2", "r3")
MEMBERS5 = tuple(f"p{i}" for i in range(5))
KS = KeyStore(5)


def pbft_replica(node: str) -> PBFTReplica:
    return PBFTReplica(config_from_plan(make_plan(Protocol.PBFT, 4), MEMBERS4, "i"),
                       node, KS)


def paxos_replica(node: str) -> PaxosReplica:
    return PaxosReplica(config_from_plan(make_plan(Protocol.PAXOS, 5), MEMBERS5, "i"),
                        node, KS)


def request(rep, value: bytes) -> list:
    return rep.step(SimEvent(0, 0, "local", rep.node, rep.node, value, "request"), 0)


def wire(kind: MsgKind, sender: str, **fields) -> bytes:
    return encode_msg(KS, Msg("i", kind, sender, **fields))


def deliver(rep, kind: MsgKind, sender: str, **fields) -> list:
    payload = wire(kind, sender, **fields)
    return rep.step(SimEvent(1, 1, "msg", sender, rep.node, payload, "m"), 1)


def sent(acts, label: str) -> list[tuple[str, Msg]]:
    return [(a.dst, decode_msg(a.payload)) for a in acts
            if isinstance(a, Send) and a.label == label]


def certificate(vote: MsgKind, view: int, value: bytes, voters=("r0", "r2", "r3")):
    """The pairs of a PREPARED or COMMITTED: each voter's signature over
    its own `vote` of `view` for the digest of `value`."""
    d = codec.sha(value)
    return tuple((v, wire(vote, v, view=view, digest=d)[-SIG_LEN:]) for v in voters)


def fire(rep, label: str) -> list:
    return rep.step(SimEvent(5, 5, "timer", rep.node, rep.node, b"", label), 5)


def timer_labels(acts) -> list[str]:
    return [a.tag for a in acts if isinstance(a, SetTimer)]


@pytest.mark.parametrize("make,kind,sender", [
    (lambda: paxos_replica("p1"), MsgKind.PREPARE, "p0"),
    (lambda: paxos_replica("p1"), MsgKind.PREPARED, "p0"),
])
def test_other_engines_kind_is_one_drop_and_no_action(make, kind, sender):
    """A crash-plan replica has no PREPARE round: a PREPARE, or a PREPARED
    whose certificate verifies, is one drop."""
    rep = make()
    fields = dict(view=0, value=b"v", digest=codec.sha(b"v"))
    if kind in VOTE_OF:
        fields["cert"] = signed_pairs(Msg("i", kind, sender, **fields), MEMBERS5[:3])
    assert deliver(rep, kind, sender, **fields) == []
    assert rep.dropped == 1 and rep.voted == set() and rep.prepared_cert is None


def test_pbft_replica_acts_on_its_newest_timer_only():
    rep = pbft_replica("r2")
    assert timer_labels(request(rep, b"v")) == ["t:1"]
    acts = fire(rep, "t:1")
    assert {msg.view for _, msg in sent(acts, "viewchange")} == {1}
    assert timer_labels(acts) == ["t:2"]
    for stale in ("t:1", "t:3", "t:x", "t"):
        assert fire(rep, stale) == []
    assert rep.vc_target == 1
    deliver(rep, MsgKind.COMMITTED, "r3", view=0, value=b"w", digest=codec.sha(b"w"),
            cert=certificate(MsgKind.COMMIT, 0, b"w"))
    assert rep.decision is not None
    for label in ("t:1", "t:2", "t:3"):
        assert fire(rep, label) == []
    assert rep.vc_target == 1 and rep.dropped == 0


def decided_pbft_replica() -> PBFTReplica:
    """r1 decides b"v" in view 0 on the leader's proposal and the leader's
    prepared and committed certificates."""
    rep = pbft_replica("r1")
    d = codec.sha(b"v")
    deliver(rep, MsgKind.PREPREPARE, "r0", view=0, value=b"v", digest=d)
    for vote, cert in ((MsgKind.PREPARE, MsgKind.PREPARED),
                       (MsgKind.COMMIT, MsgKind.COMMITTED)):
        deliver(rep, cert, "r0", view=0, value=b"v", digest=d,
                cert=certificate(vote, 0, b"v"))
    assert rep.decision is not None and rep.dropped == 0
    return rep


def test_decided_pbft_replica_answers_only_a_view_change():
    rep = decided_pbft_replica()
    assert deliver(rep, MsgKind.PREPARE, "r3", view=0, digest=codec.sha(b"w")) == []
    assert deliver(rep, MsgKind.REQUEST, "r3", view=1) == []
    assert rep.dropped == 0
    acts = deliver(rep, MsgKind.VIEWCHANGE, "r3", view=1)
    assert len(acts) == 1
    [(dst, proof)] = sent(acts, "committed")
    assert dst == "r3"
    assert (proof.kind, proof.sender) == (MsgKind.COMMITTED, "r1")
    assert (proof.view, proof.value) == (rep.decision.view, rep.decision.value)
    assert proof.cert == certificate(MsgKind.COMMIT, 0, b"v")
    # the proof is signed once and sent as it is to every asker
    assert deliver(rep, MsgKind.VIEWCHANGE, "r2", view=2)[0].payload == acts[0].payload
    assert rep.dropped == 0
    forged = wire(MsgKind.VIEWCHANGE, "r3", view=2)
    forged = forged[:-1] + bytes([forged[-1] ^ 1])
    assert rep.step(SimEvent(1, 1, "msg", "r3", "r1", forged, "m"), 1) == []
    assert rep.dropped == 1


def signed_pairs(cert: Msg, voters) -> tuple:
    """The (voter, signature) pairs of `cert`, each over the voter's own vote."""
    return tuple((v, KS.sign(v, vote_body(cert, v))) for v in sorted(voters))


def decided_paxos_replica() -> PaxosReplica:
    """p1 decides b"v" on p0's COMMITTED for view 0, the crash plan's
    certificate of three COMMITs."""
    rep = paxos_replica("p1")
    committed = Msg("i", MsgKind.COMMITTED, "p0", view=0, value=b"v",
                    digest=codec.sha(b"v"))
    deliver(rep, MsgKind.COMMITTED, "p0", view=0, value=b"v", digest=codec.sha(b"v"),
            cert=signed_pairs(committed, MEMBERS5[:3]))
    assert rep.decision is not None and rep.dropped == 0
    return rep


@pytest.mark.parametrize("make", [decided_pbft_replica, decided_paxos_replica],
                         ids=["pbft", "paxos"])
def test_a_decided_replica_answers_only_a_straggler_with_its_certificate(make):
    """After a decision, a verified VIEWCHANGE gets the replica's
    certificate back; every other kind, whether the plan's table has it or
    not, gets nothing and is no drop."""
    rep = make()
    asker = rep.cfg.members[3]
    for kind in MsgKind:
        msg = Msg("i", kind, asker, view=2, value=b"w", digest=codec.sha(b"w"))
        if kind in VOTE_OF:
            msg = replace(msg, cert=signed_pairs(msg, rep.cfg.members[:rep.cfg.quorum]))
        event = SimEvent(1, 1, "msg", asker, rep.node, encode_msg(KS, msg), "m")
        acts = rep.step(event, 1)
        if kind is MsgKind.VIEWCHANGE:
            assert [(a.dst, decode_msg(a.payload)) for a in acts] == [
                (asker, rep.certificate)]
        else:
            assert acts == [], kind
        assert rep.dropped == 0, kind


def newview_value(reports, target: int = 1) -> bytes:
    """The value r1, leader of `target`, proposes in its NEWVIEW after the
    view changes `reports` (sender, cert_view, value) arrive in that order."""
    rep = pbft_replica("r1")
    request(rep, b"own")
    acts = []
    for sender, cert_view, value in reports:
        acts += deliver(rep, MsgKind.VIEWCHANGE, sender, view=target,
                        cert_view=cert_view, value=value)
    values = {msg.value for _, msg in sent(acts, "newview")}
    assert len(values) == 1 and rep.view == target
    return values.pop()


@pytest.mark.parametrize("order", [1, -1])
def test_new_leader_takes_first_sender_on_a_cert_view_tie(order):
    reports = [("r2", 0, b"A"), ("r3", 0, b"B")][::order]
    assert newview_value(reports) == b"A"


@pytest.mark.parametrize("reports,want", [
    ([("r2", 3, b"A"), ("r3", 4, b"B")], b"B"),
    ([("r2", 4, b"A"), ("r3", 3, b"B")], b"A"),
    ([("r3", 4, b"B"), ("r2", 3, b"A")], b"B"),
])
def test_new_leader_takes_the_higher_cert_view(reports, want):
    # r1 also leads view 5; cert views 3 and 4 are then both below it
    assert newview_value(reports, target=5) == want


def test_new_leader_proposes_own_request_without_a_certificate():
    assert newview_value([("r2", -1, b"A"), ("r3", -1, b"B")]) == b"own"


@pytest.mark.parametrize("order", [1, -1])
def test_paxos_phase_two_takes_first_sender_on_an_accepted_ballot_tie(order):
    """Under a crash plan the view change is Paxos's phase 1: p1, leader of
    view 1, asks for it itself, and two reports of a value accepted in one
    view complete its quorum of three."""
    rep = paxos_replica("p1")
    request(rep, b"own")
    assert sent(fire(rep, "t:1"), "viewchange") == [] and rep.vc_target == 1
    acts = []
    for sender, value in [("p2", b"A"), ("p3", b"B")][::order]:
        acts += deliver(rep, MsgKind.VIEWCHANGE, sender, view=1, value=value, cert_view=0)
    assert {m.value for _, m in sent(acts, "newview")} == {b"A"}
    assert rep.view == 1 and rep.dropped == 0


def test_repeated_view_change_from_one_sender_is_one_drop():
    rep = pbft_replica("r1")
    assert deliver(rep, MsgKind.VIEWCHANGE, "r2", view=1) == []
    assert deliver(rep, MsgKind.VIEWCHANGE, "r2", view=1) == []
    assert rep.dropped == 1


def handled(monkeypatch, cls, protocol: Protocol, members, faults=()) -> Counter:
    """Run one instance with every handler of `cls` wrapped, and count its
    calls by (kind, whether the replica handles its own message)."""
    calls: Counter = Counter()
    for kind, handler in list(cls._ON.items()):
        def counted(rep, msg, now, handler=handler):
            calls[msg.kind, msg.sender == rep.node] += 1
            return handler(rep, msg, now)
        monkeypatch.setitem(cls._ON, kind, counted)
    result = run_instance(make_plan(protocol, len(members)), members, b"v", KS,
                          faults=faults)
    assert result.agreed
    return calls


# (kinds every replica handles once, kinds only the leader handles from
# itself): the leader decides on its quorum of COMMITs before the last
# peer's arrives, and a decided replica ignores it
@pytest.mark.parametrize("cls,protocol,members,everyone,own_only", [
    (PBFTReplica, Protocol.PBFT, MEMBERS4, (MsgKind.PREPREPARE, MsgKind.PREPARE),
     (MsgKind.COMMIT,)),
    (PaxosReplica, Protocol.PAXOS, MEMBERS5, (MsgKind.PREPREPARE,), (MsgKind.COMMIT,)),
], ids=["pbft", "paxos"])
def test_own_proposals_and_votes_reach_the_handler_table(monkeypatch, cls, protocol,
                                                         members, everyone, own_only):
    calls = handled(monkeypatch, cls, protocol, members)
    for kind in everyone:
        assert calls[kind, False] + calls[kind, True] == len(members), kind
    for kind in everyone + own_only:
        assert calls[kind, True] == 1, kind


def test_new_leaders_own_view_change_and_newview_reach_their_handlers(monkeypatch):
    calls = handled(monkeypatch, PBFTReplica, Protocol.PBFT, MEMBERS4,
                    faults=(FaultSpec("r0", Behavior.CRASH),))
    assert calls[MsgKind.VIEWCHANGE, True] == 1
    assert calls[MsgKind.NEWVIEW, True] == 1
    assert calls[MsgKind.NEWVIEW, False] == 2


# -- equivocation ----------------------------------------------------------------

def deliver_at(rep, now: int, kind: MsgKind, sender: str, **fields) -> list:
    payload = wire(kind, sender, **fields)
    return rep.step(SimEvent(now, now, "msg", sender, rep.node, payload, "m"), now)


def told(acts, kind: MsgKind) -> dict[str, bytes]:
    """dst -> the wire of each `kind` Send in `acts`."""
    return {a.dst: a.payload for a in acts if isinstance(a, Send) and a.label == kind.value}


def assert_lie(lie: bytes, honest: Msg, members) -> None:
    """`lie` is `honest` with its value and digest altered as `_equivocate`
    alters them, signed by its sender, and `verify_msg` accepts it."""
    opened = verify_msg(KS, lie, "i", frozenset(members), len(members))
    assert opened is not None and opened.sender == honest.sender
    if honest.value is None:
        assert opened.value is None
        assert opened.digest == codec.sha(b"equivocate/" + honest.digest)
    else:
        assert opened.value == codec.sha(b"equivocate/" + honest.value)
        assert opened.digest == (honest.digest and codec.sha(opened.value))
    assert replace(opened, value=honest.value, digest=honest.digest) == honest


def test_equivocating_pbft_leader_tells_odd_peers_one_other_proposal():
    rep = pbft_replica("r0")
    rep.lie_from = 0
    got = told(request(rep, b"v"), MsgKind.PREPREPARE)
    honest = Msg("i", MsgKind.PREPREPARE, "r0", view=0, value=b"v", digest=codec.sha(b"v"))
    assert got["r2"] == encode_msg(KS, honest)
    assert got["r1"] == got["r3"] != got["r2"]
    assert_lie(got["r1"], honest, MEMBERS4)


def test_equivocating_pbft_voter_lies_to_an_odd_leader_only_from_its_tick():
    rep = pbft_replica("r2")
    rep.lie_from = 3
    d = codec.sha(b"v")
    # view 0's leader r0 is even; view 1's leader r1 is odd
    to_r0 = told(deliver_at(rep, 3, MsgKind.PREPREPARE, "r0", view=0, value=b"v",
                            digest=d), MsgKind.PREPARE)
    assert to_r0 == {"r0": wire(MsgKind.PREPARE, "r2", view=0, digest=d)}
    vote = Msg("i", MsgKind.PREPARE, "r2", view=1, digest=d)
    early = pbft_replica("r2")
    early.lie_from = 3
    before = told(deliver_at(early, 2, MsgKind.NEWVIEW, "r1", view=1, value=b"v",
                             digest=d), MsgKind.PREPARE)
    assert before == {"r1": encode_msg(KS, vote)}
    after = told(deliver_at(rep, 3, MsgKind.NEWVIEW, "r1", view=1, value=b"v",
                            digest=d), MsgKind.PREPARE)
    assert after["r1"] != encode_msg(KS, vote)
    assert_lie(after["r1"], vote, MEMBERS4)


def test_equivocating_paxos_proposer_tells_odd_peers_one_other_value():
    rep = paxos_replica("p0")
    rep.lie_from = 0
    got = told(request(rep, b"v"), MsgKind.PREPREPARE)
    honest = Msg("i", MsgKind.PREPREPARE, "p0", view=0, value=b"v", digest=codec.sha(b"v"))
    assert got["p2"] == got["p4"] == encode_msg(KS, honest)
    assert got["p1"] == got["p3"] != got["p2"]
    assert_lie(got["p1"], honest, MEMBERS5)


def test_equivocating_paxos_acceptor_lies_to_an_odd_owner_only_from_its_tick():
    """A crash-plan replica's accepting vote is its COMMIT: honest to view
    0's even leader p0, a lie to view 1's odd leader p1 from tick 3 on."""
    rep = paxos_replica("p2")
    rep.lie_from = 3
    d = codec.sha(b"v")
    to_p0 = told(deliver_at(rep, 3, MsgKind.PREPREPARE, "p0", view=0, value=b"v",
                            digest=d), MsgKind.COMMIT)
    assert to_p0 == {"p0": wire(MsgKind.COMMIT, "p2", view=0, digest=d)}
    vote = Msg("i", MsgKind.COMMIT, "p2", view=1, digest=d)
    early = paxos_replica("p2")
    early.lie_from = 3
    before = told(deliver_at(early, 2, MsgKind.NEWVIEW, "p1", view=1, value=b"v",
                             digest=d), MsgKind.COMMIT)
    assert before == {"p1": encode_msg(KS, vote)}
    after = told(deliver_at(rep, 3, MsgKind.NEWVIEW, "p1", view=1, value=b"v",
                            digest=d), MsgKind.COMMIT)
    assert after["p1"] != encode_msg(KS, vote)
    assert_lie(after["p1"], vote, MEMBERS5)
