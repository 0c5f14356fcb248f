"""The majority engine's linear accept phase: an acceptor sends its signed
P2B to the ballot's owner only, the owner decides on a quorum and
broadcasts one LEARN that carries the quorum's signatures, and every other
replica decides on that certificate. A certificate that does not show a
quorum of distinct members accepting the LEARN's ballot and value is a
counted drop, as is a P2B sent to a replica that does not own its ballot.
"""

from collections import Counter

import pytest

from conftest import decode_msg
from otcestack.consensus import (Msg, MsgKind, PaxosReplica, config_from_plan,
                                 encode_msg, run_instance)
from otcestack.keys import SIG_LEN, KeyStore
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import Network, NetworkConfig, Send, SimEvent

MEMBERS5 = tuple(f"p{i}" for i in range(5))
KS = KeyStore(5)
CFG5 = config_from_plan(make_plan(Protocol.PAXOS, 5), MEMBERS5, "i")
Q = CFG5.quorum


def replica(node: str, proposer: bool = False) -> PaxosReplica:
    return PaxosReplica(CFG5, node, KS, initial_proposer=proposer)


def deliver(rep, kind: MsgKind, sender: str, **fields) -> list:
    payload = encode_msg(KS, Msg("i", kind, sender, **fields))
    return rep.step(SimEvent(1, 1, "msg", sender, rep.node, payload, "m"), 1)


def sends(acts) -> list[tuple[str, Msg]]:
    return [(a.dst, decode_msg(a.payload)) for a in acts if isinstance(a, Send)]


def p2b_sig(voter: str, rnd: int = 1, node: int = 0, value: bytes = b"v") -> bytes:
    vote = Msg("i", MsgKind.P2B, voter, view=rnd, ballot_node=node, value=value)
    return encode_msg(KS, vote)[-SIG_LEN:]


def pairs(voters, **signed) -> tuple:
    return tuple((v, p2b_sig(v, **signed)) for v in voters)


def learn(rep, cert, sender: str = "p0", rnd: int = 1, node: int = 0,
          value: bytes = b"v") -> list:
    return deliver(rep, MsgKind.LEARN, sender, view=rnd, ballot_node=node,
                   value=value, cert=cert)


# -- the certificate -------------------------------------------------------

def test_learn_with_a_quorum_of_accepts_decides():
    rep = replica("p3")
    assert sends(learn(rep, pairs(MEMBERS5[:Q]))) == []
    assert rep.decision is not None
    assert (rep.decision.value, rep.decision.view) == (b"v", 1)
    assert rep.dropped == 0
    # a second certificate changes nothing and is no drop
    assert learn(rep, pairs(MEMBERS5[1:Q + 1]), sender="p1") == []
    assert rep.dropped == 0


@pytest.mark.parametrize("cert", [
    pytest.param(pairs(MEMBERS5[:Q - 1]), id="q-1 pairs"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[:1]), id="repeated voter"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(["x9"]), id="non-member voter"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[Q - 1:Q], rnd=2),
                 id="pair over another round"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[Q - 1:Q], node=1),
                 id="pair over another ballot owner"),
    pytest.param(pairs(MEMBERS5[:Q - 1]) + pairs(MEMBERS5[Q - 1:Q], value=b"w"),
                 id="pair over another value"),
    pytest.param(pairs(MEMBERS5[:Q], value=b"w"), id="every pair over another value"),
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
    vote = Msg("i", MsgKind.P2B, "p1", view=1, ballot_node=0, value=b"v")
    cert = pairs(MEMBERS5[:Q])
    assert decode_msg(encode_msg(KS, vote)).cert == ()
    assert decode_msg(encode_msg(KS, Msg("i", MsgKind.LEARN, "p1", cert=cert))).cert == cert
    # a certificate on another kind is not part of what is signed or sent
    with_cert = Msg("i", MsgKind.P2B, "p1", view=1, ballot_node=0, value=b"v", cert=cert)
    assert encode_msg(KS, with_cert) == encode_msg(KS, vote)


# -- the collector -----------------------------------------------------------

def test_an_acceptor_sends_its_p2b_to_the_ballot_owner_only():
    rep = replica("p3")
    acts = deliver(rep, MsgKind.P2A, "p1", view=1, ballot_node=1, value=b"v")
    [(dst, vote)] = sends(acts)
    assert dst == "p1"
    assert (vote.kind, vote.sender, vote.view, vote.ballot_node, vote.value) == (
        MsgKind.P2B, "p3", 1, 1, b"v")
    assert vote.sig == p2b_sig("p3", node=1)


def test_a_p2a_from_a_member_that_does_not_own_its_ballot_is_one_drop():
    rep = replica("p3")
    assert deliver(rep, MsgKind.P2A, "p1", view=1, ballot_node=2, value=b"v") == []
    assert rep.accepted is None and rep.dropped == 1


def test_a_p2b_to_a_replica_that_does_not_own_its_ballot_is_one_drop():
    rep = replica("p3")
    for voter in MEMBERS5:
        deliver(rep, MsgKind.P2B, voter, view=1, ballot_node=0, value=b"v")
    assert rep.decision is None and rep.dropped == len(MEMBERS5)
    assert rep.accepts == {}


def test_the_owner_decides_on_a_quorum_and_broadcasts_one_certificate():
    rep = replica("p0", proposer=True)
    rep.step(SimEvent(0, 0, "local", "p0", "p0", b"v", "request"), 0)
    acts = []
    for sender in ("p1", "p2"):
        acts += deliver(rep, MsgKind.P1B, sender, view=1, ballot_node=0)
    assert {dst for dst, m in sends(acts) if m.kind is MsgKind.P2A} == set(MEMBERS5[1:])
    acts = deliver(rep, MsgKind.P2B, "p4", view=1, ballot_node=0, value=b"v")
    assert acts == [] and rep.decision is None
    acts = deliver(rep, MsgKind.P2B, "p2", view=1, ballot_node=0, value=b"v")
    assert rep.decision is not None and rep.decision.value == b"v"
    learns = sends(acts)
    assert {dst for dst, _ in learns} == set(MEMBERS5[1:])
    assert len({a.payload for a in acts if isinstance(a, Send)}) == 1
    cert = learns[0][1].cert
    assert cert == pairs(["p0", "p2", "p4"])
    # a late accept is tallied and sends nothing
    assert deliver(rep, MsgKind.P2B, "p1", view=1, ballot_node=0, value=b"v") == []
    assert rep.dropped == 0


# -- a straggler learns in one hop -------------------------------------------

def test_a_decided_replica_answers_a_p1a_with_its_certificate():
    rep = replica("p3")
    learn(rep, pairs(MEMBERS5[:Q]))
    acts = deliver(rep, MsgKind.P1A, "p4", view=7, ballot_node=4)
    [(dst, reply)] = sends(acts)
    assert dst == "p4"
    assert (reply.kind, reply.sender, reply.view, reply.ballot_node, reply.value,
            reply.cert) == (MsgKind.LEARN, "p3", 1, 0, b"v", pairs(MEMBERS5[:Q]))
    # the asking proposer decides on that answer, and sends no phase 2
    asker = replica("p4", proposer=True)
    asker.step(SimEvent(0, 0, "local", "p4", "p4", b"mine", "request"), 0)
    out = asker.step(SimEvent(2, 2, "msg", "p3", "p4", acts[0].payload, "learn"), 2)
    assert asker.decision is not None and asker.decision.value == b"v"
    assert [m for _, m in sends(out)] == []
    # its own ballot's late promises are ignored, not counted as drops
    assert deliver(asker, MsgKind.P1B, "p1", view=1, ballot_node=4) == []
    assert deliver(asker, MsgKind.P1B, "p2", view=1, ballot_node=4) == []
    assert asker.dropped == 0


def test_a_straggler_that_missed_the_learn_decides_without_a_phase_two():
    members = ("p0", "p1", "p2")
    cfg = config_from_plan(make_plan(Protocol.PAXOS, 3), members, "i")
    net = Network(NetworkConfig(delay_min=1, delay_max=2, seed=4))
    reps = {m: PaxosReplica(cfg, m, KS, initial_proposer=m == "p0") for m in members}

    def handler(node):
        def step(event, now):
            if (node == "p2" and event.kind == "msg" and event.label == "learn"
                    and event.src == "p0"):
                return []      # p2 never hears p0's certificate
            return reps[node].step(event, now)
        return step

    for m in members:
        net.register(m, handler(m))
        net.schedule_local(m, 0, b"v", MsgKind.REQUEST.value)
    net.run_until(4000)
    assert {m: r.decision.value for m, r in reps.items()} == dict.fromkeys(members, b"v")
    p2_sends = Counter(line.split()[4] for line in net.trace
                       if line.split()[2] == "p2" and line.split()[4].startswith("msg:"))
    # phase 1 and 2 answers to p0's ballot, then its own ballot's p1a only
    assert p2_sends == {"msg:p1b": 1, "msg:p2b": 1, "msg:p1a": 2}
    p2_got = Counter(line.split()[4] for line in net.trace
                     if line.split()[3] == "p2" and line.split()[2] != "p2")
    # p0's broadcast and p0's answer, both withheld, and p1's answer
    assert p2_got["msg:learn"] == 3
    assert reps["p2"].decision.view == 1


# -- linear cost, as exact counts ---------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 16, 31, 64])
def test_fault_free_decision_costs_five_sends_per_peer(n):
    members = tuple(f"m{i:02d}" for i in range(n))
    res = run_instance(make_plan(Protocol.PAXOS, n), members, b"v", KeyStore(3),
                       net_cfg=NetworkConfig(1, 3, seed=n))
    assert res.agreed and len(res.decisions) == n
    labels = Counter(line.split()[4] for line in res.trace
                     if line.split()[4].split(":")[0] in ("msg", "drop", "dead"))
    assert labels == {f"msg:{k}": n - 1 for k in ("p1a", "p1b", "p2a", "p2b", "learn")}
    assert res.sent == 5 * (n - 1)
    # the promises that reach the proposer after its quorum are late, not drops
    assert res.replica_drops == dict.fromkeys(members, 0)
