"""The crash plan's accept phase, in Paxos's words: the crash plan is
Multi-Paxos in VR form, so a ballot is a view, its owner is the view's
leader, a P2A is the leader's PREPREPARE of its view, an acceptor's P2B is
its COMMIT, and the LEARN is the leader's COMMITTED. An acceptor sends its
signed COMMIT to the view's leader only, the leader decides on a quorum and
broadcasts one COMMITTED that carries the quorum's signatures, and every
other replica decides on that certificate. A certificate that does not show
a quorum of distinct members committing to its view and digest is a counted
drop, as is a COMMIT sent to a replica that does not lead its view.
"""

from collections import Counter

import pytest

from conftest import decode_msg
from otcestack import codec
from otcestack.consensus import (Msg, MsgKind, PaxosReplica, config_from_plan,
                                 encode_msg, run_instance)
from otcestack.keys import SIG_LEN, KeyStore
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import Network, NetworkConfig, Record, Send, SimEvent

MEMBERS5 = tuple(f"p{i}" for i in range(5))
KS = KeyStore(5)
CFG5 = config_from_plan(make_plan(Protocol.PAXOS, 5), MEMBERS5, "i")
Q = CFG5.quorum
D = codec.sha(b"v")


def replica(node: str) -> PaxosReplica:
    return PaxosReplica(CFG5, node, KS)


def deliver(rep, kind: MsgKind, sender: str, **fields) -> list:
    payload = encode_msg(KS, Msg("i", kind, sender, **fields))
    return rep.step(SimEvent(1, 1, "msg", sender, rep.node, payload, "m"), 1)


def sends(acts) -> list[tuple[str, Msg]]:
    return [(a.dst, decode_msg(a.payload)) for a in acts if isinstance(a, Send)]


def commit_sig(voter: str, view: int = 0, digest: bytes = D) -> bytes:
    vote = Msg("i", MsgKind.COMMIT, voter, view=view, digest=digest)
    return encode_msg(KS, vote)[-SIG_LEN:]


def pairs(voters, **signed) -> tuple:
    return tuple((v, commit_sig(v, **signed)) for v in voters)


def learn(rep, cert, sender: str = "p0", view: int = 0, value: bytes = b"v") -> list:
    """Deliver a COMMITTED of `view` for `value` with the pairs `cert`."""
    return deliver(rep, MsgKind.COMMITTED, sender, view=view, value=value,
                   digest=D, cert=cert)


# -- the certificate -------------------------------------------------------

def test_learn_with_a_quorum_of_accepts_decides():
    rep = replica("p3")
    acts = learn(rep, pairs(MEMBERS5[:Q]))
    assert sends(acts) == []
    assert [a.data for a in acts if isinstance(a, Record)] == [
        f"view=0 value={codec.short(b'v')}"]
    assert (rep.decision.value, rep.decision.view) == (b"v", 0)
    assert rep.dropped == 0
    # a second certificate changes nothing and is no drop
    assert learn(rep, pairs(MEMBERS5[1:Q + 1]), sender="p1") == []
    assert rep.dropped == 0


# view 5 is a later round of view 0's leader p0; view 1 is p1's
@pytest.mark.parametrize("cert", [
    pytest.param(pairs(MEMBERS5[:Q - 1]), id="q-1 pairs"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[:1]), id="repeated voter"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(["x9"]), id="non-member voter"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[Q - 1:Q], view=5),
                 id="pair over another round"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[Q - 1:Q], view=1),
                 id="pair over another ballot owner"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[Q - 1:Q],
                                                 digest=codec.sha(b"w")),
                 id="pair over another value"),
    pytest.param(pairs(MEMBERS5[:Q], digest=codec.sha(b"w")),
                 id="every pair over another value"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + ((MEMBERS5[Q - 1], bytes(SIG_LEN)),),
                 id="forged signature"),
    pytest.param((), id="no pairs"),
])
def test_a_learn_without_a_certificate_is_one_drop(cert):
    rep = replica("p3")
    assert learn(rep, cert) == []
    assert rep.decision is None and rep.dropped == 1


def test_a_learn_without_a_value_is_one_drop():
    rep = replica("p3")
    assert learn(rep, pairs(MEMBERS5[:Q]), value=None) == []
    assert rep.decision is None and rep.dropped == 1


@pytest.mark.parametrize("cert", [(("p0", 5),), (("p0",),), ("p0",),
                                  (("p0", b"s", b"s"),)])
def test_a_learn_whose_pairs_have_the_wrong_shape_is_one_drop(cert):
    rep = replica("p3")
    assert learn(rep, pairs(MEMBERS5[1:Q]) + cert) == []
    assert rep.decision is None and rep.dropped == 1


def test_only_a_learn_carries_the_certificate_field():
    vote = Msg("i", MsgKind.COMMIT, "p1", view=0, digest=D)
    cert = pairs(MEMBERS5[:Q])
    assert decode_msg(encode_msg(KS, vote)).cert == ()
    committed = Msg("i", MsgKind.COMMITTED, "p1", value=b"v", digest=D, cert=cert)
    assert decode_msg(encode_msg(KS, committed)).cert == cert
    # a certificate on another kind is not part of what is signed or sent
    with_cert = Msg("i", MsgKind.COMMIT, "p1", view=0, digest=D, cert=cert)
    assert encode_msg(KS, with_cert) == encode_msg(KS, vote)


# -- the collector -----------------------------------------------------------

def test_an_acceptor_sends_its_p2b_to_the_ballot_owner_only():
    """Accepting a proposal is the COMMIT vote, and the accepted (view,
    digest, value) is what the next VIEWCHANGE reports."""
    rep = replica("p3")
    acts = deliver(rep, MsgKind.PREPREPARE, "p0", view=0, value=b"v", digest=D)
    [(dst, vote)] = sends(acts)
    assert dst == "p0"
    assert (vote.kind, vote.sender, vote.view, vote.digest) == (MsgKind.COMMIT, "p3", 0, D)
    assert vote.sig == commit_sig("p3")
    assert rep.prepared_cert == (0, D, b"v")
    acts = deliver(rep, MsgKind.PREPREPARE, "p1", view=1, value=b"v", digest=D)
    assert [(dst, m.kind, m.view) for dst, m in sends(acts)] == [("p1", MsgKind.COMMIT, 1)]
    assert rep.prepared_cert == (1, D, b"v") and rep.dropped == 0


def test_a_p2a_from_a_member_that_does_not_own_its_ballot_is_one_drop():
    rep = replica("p3")
    assert deliver(rep, MsgKind.PREPREPARE, "p1", view=0, value=b"v", digest=D) == []
    assert deliver(rep, MsgKind.PREPREPARE, "p1", view=2, value=b"v", digest=D) == []
    assert rep.prepared_cert is None and rep.voted == set() and rep.dropped == 2


def test_a_p2b_to_a_replica_that_does_not_own_its_ballot_is_one_drop():
    rep = replica("p3")
    for voter in MEMBERS5:
        deliver(rep, MsgKind.COMMIT, voter, view=0, digest=D)
    assert rep.decision is None and rep.dropped == len(MEMBERS5)
    assert rep.votes == {}


def test_the_owner_decides_on_a_quorum_and_broadcasts_one_certificate():
    rep = replica("p0")
    acts = rep.step(SimEvent(0, 0, "local", "p0", "p0", b"v", "request"), 0)
    # the proposal goes to every peer; the leader's own COMMIT is tallied
    assert [(dst, m.kind) for dst, m in sends(acts)] == [
        (m, MsgKind.PREPREPARE) for m in MEMBERS5[1:]]
    acts = deliver(rep, MsgKind.COMMIT, "p4", view=0, digest=D)
    assert acts == [] and rep.decision is None
    acts = deliver(rep, MsgKind.COMMIT, "p2", view=0, digest=D)
    assert rep.decision is not None and rep.decision.value == b"v"
    learns = sends(acts)
    assert {dst for dst, _ in learns} == set(MEMBERS5[1:])
    assert len({a.payload for a in acts if isinstance(a, Send)}) == 1
    assert learns[0][1].kind is MsgKind.COMMITTED
    assert learns[0][1].cert == pairs(["p0", "p2", "p4"])
    # a late accept is ignored and sends nothing
    assert deliver(rep, MsgKind.COMMIT, "p1", view=0, digest=D) == []
    assert rep.dropped == 0


# -- a straggler learns in one hop -------------------------------------------

def test_a_decided_replica_answers_a_view_change_with_its_certificate():
    rep = replica("p3")
    learn(rep, pairs(MEMBERS5[:Q]))
    acts = deliver(rep, MsgKind.VIEWCHANGE, "p4", view=3)
    [(dst, reply)] = sends(acts)
    assert dst == "p4"
    assert (reply.kind, reply.sender, reply.view, reply.value, reply.cert) == (
        MsgKind.COMMITTED, "p3", 0, b"v", pairs(MEMBERS5[:Q]))
    # the asking replica decides on that answer, and sends nothing
    asker = replica("p4")
    asker.step(SimEvent(0, 0, "local", "p4", "p4", b"mine", "request"), 0)
    out = asker.step(SimEvent(2, 2, "msg", "p3", "p4", acts[0].payload, "committed"), 2)
    assert asker.decision is not None and asker.decision.value == b"v"
    assert [a.data for a in out if isinstance(a, Record)] == [
        f"view=0 value={codec.short(b'v')} adopted"]
    assert sends(out) == [] and asker.dropped == 0


def test_a_straggler_that_missed_the_learn_decides_without_a_phase_two():
    members = ("p0", "p1", "p2")
    cfg = config_from_plan(make_plan(Protocol.PAXOS, 3), members, "i")
    net = Network(NetworkConfig(delay_min=1, delay_max=2, seed=4))
    reps = {m: PaxosReplica(cfg, m, KS) for m in members}
    proposed_to_p2 = []      # the view of each PREPREPARE p2 receives

    def handler(node):
        def step(event, now):
            if node == "p2" and event.kind == "msg":
                if event.label == "committed" and event.src == "p0":
                    return []      # p2 never hears p0's certificate
                if event.label == "preprepare":
                    proposed_to_p2.append(decode_msg(event.payload).view)
            return reps[node].step(event, now)
        return step

    for m in members:
        net.register(m, handler(m))
        net.schedule_local(m, 0, b"v", MsgKind.REQUEST.value)
    net.run_until(4000)
    assert {m: r.decision.value for m, r in reps.items()} == dict.fromkeys(members, b"v")
    p2_sends = Counter(line.split()[4] for line in net.trace
                       if line.split()[2] == "p2" and line.split()[4].startswith("msg:"))
    # its accepting vote in view 0, then one view change, to view 1's leader
    assert p2_sends == {"msg:commit": 1, "msg:viewchange": 1}
    p2_got = Counter(line.split()[4] for line in net.trace
                     if line.split()[3] == "p2" and line.split()[2] != "p2")
    # p0's broadcast, withheld, and p1's answer
    assert p2_got["msg:committed"] == 2
    # view 0's proposal only: no leader of a later view proposes again
    assert p2_got["msg:preprepare"] == 1 and proposed_to_p2 == [0]
    assert reps["p2"].decision.view == 0


# -- linear cost, as exact counts ---------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 16, 31, 64])
def test_fault_free_decision_costs_three_sends_per_peer(n):
    """View 0 has no lower view to recover, so it needs no view change: a
    PREPREPARE, a COMMIT and a COMMITTED per peer."""
    members = tuple(f"m{i:02d}" for i in range(n))
    res = run_instance(make_plan(Protocol.PAXOS, n), members, b"v", KeyStore(3),
                       net_cfg=NetworkConfig(1, 3, seed=n))
    assert res.agreed and len(res.decisions) == n
    labels = Counter(line.split()[4] for line in res.trace
                     if line.split()[4].split(":")[0] in ("msg", "drop", "dead"))
    assert labels == {f"msg:{k}": n - 1 for k in ("preprepare", "commit", "committed")}
    assert res.sent == 3 * (n - 1)
    # the COMMITs that reach the leader after its quorum are late, not drops
    assert res.replica_drops == dict.fromkeys(members, 0)
