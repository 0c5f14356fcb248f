"""The linear phases under a byzantine plan: a replica sends its signed
PREPARE and COMMIT to the view's leader only, the leader broadcasts one
PREPARED and one COMMITTED certificate carrying a quorum's signatures, and
a VIEWCHANGE goes to the leader of its target only. A certificate that does
not show a quorum of distinct members voting for its view and digest, or
whose value does not hash to its digest, is a counted drop, as is a vote or
view change sent to a replica that does not lead its view. A replica that
has asked for a later view casts no vote in its current one, so an
equivocating member within the fault bound cannot split the honest
replicas. The seeded sweep also runs the crash plan, whose faults stop or
slow a member.
"""

import random
from collections import Counter, deque
from dataclasses import replace

import pytest

from conftest import decode_msg
from otcestack import codec
from otcestack.consensus import (Msg, MsgKind, PaxosReplica, PBFTReplica,
                                 config_from_plan, encode_msg, run_instance)
from otcestack.keys import SIG_LEN, KeyStore
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import (Behavior, FaultSpec, NetworkConfig, Record, Send,
                              SetTimer, SimEvent)

MEMBERS4 = ("r0", "r1", "r2", "r3")
KS = KeyStore(5)
CFG4 = config_from_plan(make_plan(Protocol.PBFT, 4), MEMBERS4, "i")
Q = CFG4.quorum
D = codec.sha(b"v")


def replica(node: str) -> PBFTReplica:
    return PBFTReplica(CFG4, node, KS)


def deliver(rep, kind: MsgKind, sender: str, **fields) -> list:
    payload = encode_msg(KS, Msg("i", kind, sender, **fields))
    return rep.step(SimEvent(1, 1, "msg", sender, rep.node, payload, "m"), 1)


def request(rep, value: bytes = b"v") -> list:
    return rep.step(SimEvent(0, 0, "local", rep.node, rep.node, value, "request"), 0)


def fire_newest(rep) -> list:
    return rep.step(SimEvent(5, 5, "timer", rep.node, rep.node, b"",
                             f"t:{rep._timer_gen}"), 5)


def sends(acts) -> list[tuple[str, Msg]]:
    return [(a.dst, decode_msg(a.payload)) for a in acts if isinstance(a, Send)]


def pairs(vote: MsgKind, voters, view: int = 0, digest: bytes = D) -> tuple:
    """Each voter's signature over its own `vote` of `view` for `digest`."""
    return tuple((v, encode_msg(KS, Msg("i", vote, v, view=view,
                                        digest=digest))[-SIG_LEN:])
                 for v in voters)


VOTE = {MsgKind.PREPARED: MsgKind.PREPARE, MsgKind.COMMITTED: MsgKind.COMMIT}


def certify(rep, kind: MsgKind, cert, sender: str = "r0", view: int = 0,
            value: bytes | None = b"v", digest: bytes = D) -> list:
    return deliver(rep, kind, sender, view=view, value=value, digest=digest, cert=cert)


# -- the certificates ----------------------------------------------------------

def test_prepared_of_the_current_view_prepares_and_sends_commit_to_the_leader():
    rep = replica("r2")
    acts = certify(rep, MsgKind.PREPARED, pairs(MsgKind.PREPARE, MEMBERS4[:Q]))
    assert rep.prepared_cert == (0, D, b"v")
    [(dst, vote)] = sends(acts)
    assert dst == "r0"
    assert (vote.kind, vote.sender, vote.view, vote.digest) == (
        MsgKind.COMMIT, "r2", 0, D)
    assert rep.dropped == 0


def test_committed_decides_and_a_second_one_changes_nothing():
    rep = replica("r2")
    acts = certify(rep, MsgKind.COMMITTED, pairs(MsgKind.COMMIT, MEMBERS4[:Q]))
    assert sends(acts) == []
    assert (rep.decision.value, rep.decision.view) == (b"v", 0)
    assert [a.data for a in acts if isinstance(a, Record)] == [
        f"view=0 value={codec.short(b'v')}"]
    assert certify(rep, MsgKind.COMMITTED, pairs(MsgKind.COMMIT, MEMBERS4[1:])) == []
    assert rep.dropped == 0


def test_a_committed_from_a_decided_peer_is_adopted():
    rep = replica("r2")
    acts = certify(rep, MsgKind.COMMITTED, pairs(MsgKind.COMMIT, MEMBERS4[:Q]),
                   sender="r3")
    assert rep.decision.value == b"v"
    assert [a.data for a in acts if isinstance(a, Record)] == [
        f"view=0 value={codec.short(b'v')} adopted"]


OTHER = codec.sha(b"w")
REFUSED = [
    pytest.param(dict(voters=MEMBERS4[:Q - 1]), id="q-1 pairs"),
    pytest.param(dict(voters=MEMBERS4[:Q - 1] + MEMBERS4[:1]), id="repeated voter"),
    pytest.param(dict(voters=MEMBERS4[:Q - 1] + ("x9",)), id="non-member voter"),
    pytest.param(dict(extra=dict(view=1)), id="pair over another view"),
    pytest.param(dict(extra=dict(digest=OTHER)), id="pair over another digest"),
    pytest.param(dict(extra=dict(vote=True)), id="pair over the other vote kind"),
    pytest.param(dict(forged=True), id="forged signature"),
    pytest.param(dict(voters=()), id="no pairs"),
    pytest.param(dict(value=b"w"), id="value whose sha is not the digest"),
    pytest.param(dict(value=None), id="no value"),
]


@pytest.mark.parametrize("kind", [MsgKind.PREPARED, MsgKind.COMMITTED])
@pytest.mark.parametrize("case", REFUSED)
def test_a_certificate_without_a_quorum_of_matching_votes_is_one_drop(kind, case):
    vote = VOTE[kind]
    cert = pairs(vote, case.get("voters", MEMBERS4[:Q]))
    extra = case.get("extra")
    if extra is not None:
        other_vote = MsgKind.COMMIT if vote is MsgKind.PREPARE else MsgKind.PREPARE
        cert = pairs(vote, MEMBERS4[:Q - 1]) + pairs(
            other_vote if extra.get("vote") else vote, MEMBERS4[Q - 1:Q],
            view=extra.get("view", 0), digest=extra.get("digest", D))
    if case.get("forged"):
        cert = cert[:-1] + ((cert[-1][0], bytes(SIG_LEN)),)
    rep = replica("r2")
    assert certify(rep, kind, cert, value=case.get("value", b"v")) == []
    assert rep.dropped == 1
    assert rep.decision is None and rep.prepared_cert is None and rep.voted == set()


@pytest.mark.parametrize("kind", [MsgKind.PREPARED, MsgKind.COMMITTED])
def test_an_equivocating_leaders_re_signed_certificate_is_one_drop(kind):
    """The leader rewrites a genuine certificate's value and digest, as the
    equivocator's `_equivocate` does to a proposal, and signs it again: the
    pairs still sign the old digest."""
    genuine = Msg("i", kind, "r0", view=0, value=b"v", digest=D,
                  cert=pairs(VOTE[kind], MEMBERS4[:Q]))
    alt = codec.sha(b"equivocate/v")
    wire = encode_msg(KS, replace(genuine, value=alt, digest=codec.sha(alt)))
    rep = replica("r1")
    assert rep.step(SimEvent(1, 1, "msg", "r0", "r1", wire, "m"), 1) == []
    assert rep.dropped == 1 and rep.decision is None and rep.prepared_cert is None


def test_only_certificates_carry_the_pairs_field():
    cert = pairs(MsgKind.PREPARE, MEMBERS4[:Q])
    vote = Msg("i", MsgKind.PREPARE, "r1", view=0, digest=D)
    assert encode_msg(KS, replace(vote, cert=cert)) == encode_msg(KS, vote)
    prepared = Msg("i", MsgKind.PREPARED, "r0", view=0, value=b"v", digest=D, cert=cert)
    assert decode_msg(encode_msg(KS, prepared)).cert == cert


# -- routing to the leader -------------------------------------------------------

def test_a_replica_sends_its_prepare_to_the_leader_only():
    rep = replica("r2")
    acts = deliver(rep, MsgKind.PREPREPARE, "r0", view=0, value=b"v", digest=D)
    [(dst, vote)] = sends(acts)
    assert (dst, vote.kind, vote.sender, vote.digest) == ("r0", MsgKind.PREPARE, "r2", D)


@pytest.mark.parametrize("kind", [MsgKind.PREPARE, MsgKind.COMMIT])
@pytest.mark.parametrize("node,view", [("r1", 0), ("r2", 1), ("r0", 5)])
def test_a_vote_to_a_replica_that_does_not_lead_its_view_is_one_drop(kind, node, view):
    rep = replica(node)
    for voter in MEMBERS4:
        if voter != node:
            assert deliver(rep, kind, voter, view=view, digest=D) == []
    assert rep.dropped == len(MEMBERS4) - 1
    assert rep.votes == {}


@pytest.mark.parametrize("node,target", [("r0", 1), ("r2", 1), ("r1", 2)])
def test_a_view_change_to_a_replica_that_does_not_lead_its_target_is_one_drop(
        node, target):
    rep = replica(node)
    for sender in MEMBERS4:
        if sender != node:
            assert deliver(rep, MsgKind.VIEWCHANGE, sender, view=target) == []
    assert rep.dropped == len(MEMBERS4) - 1
    assert rep.viewchanges == {} and rep.vc_target == 0


def test_the_leader_broadcasts_one_certificate_per_phase():
    rep = replica("r0")
    assert {dst for dst, _ in sends(request(rep))} == set(MEMBERS4[1:])
    assert deliver(rep, MsgKind.PREPARE, "r3", view=0, digest=D) == []
    acts = deliver(rep, MsgKind.PREPARE, "r1", view=0, digest=D)
    assert {dst for dst, _ in sends(acts)} == set(MEMBERS4[1:])
    assert len({a.payload for a in acts if isinstance(a, Send)}) == 1
    prepared = sends(acts)[0][1]
    assert (prepared.kind, prepared.view, prepared.value, prepared.digest) == (
        MsgKind.PREPARED, 0, b"v", D)
    assert prepared.cert == pairs(MsgKind.PREPARE, ("r0", "r1", "r3"))
    # the leader's own commit is tallied, not sent; a late prepare is no drop
    assert rep.prepared_cert == (0, D, b"v")
    assert deliver(rep, MsgKind.PREPARE, "r2", view=0, digest=D) == []
    assert deliver(rep, MsgKind.COMMIT, "r2", view=0, digest=D) == []
    acts = deliver(rep, MsgKind.COMMIT, "r1", view=0, digest=D)
    committed = sends(acts)
    assert {dst for dst, _ in committed} == set(MEMBERS4[1:])
    assert committed[0][1].kind is MsgKind.COMMITTED
    assert committed[0][1].cert == pairs(MsgKind.COMMIT, ("r0", "r1", "r2"))
    assert rep.decision.value == b"v" and rep.dropped == 0
    # a decided leader answers a view change with the wire it broadcast
    answer = deliver(rep, MsgKind.VIEWCHANGE, "r3", view=4)
    assert [a.payload for a in answer] == [acts[0].payload]


# -- view changes ------------------------------------------------------------------

def test_a_view_change_goes_to_the_new_leader_only():
    rep = replica("r2")
    request(rep)
    [(dst, vc)] = sends(fire_newest(rep))
    assert (dst, vc.kind, vc.view) == ("r1", MsgKind.VIEWCHANGE, 1)


def test_the_new_leader_joins_on_f_plus_one_and_announces_on_a_quorum():
    rep = replica("r1")
    request(rep, b"own")
    assert deliver(rep, MsgKind.VIEWCHANGE, "r2", view=1) == []
    acts = deliver(rep, MsgKind.VIEWCHANGE, "r3", view=1)
    assert rep.vc_target == 1 and rep.view == 1
    proposals = [(dst, m) for dst, m in sends(acts)
                 if m.kind is MsgKind.PREPREPARE and m.view == 1]
    assert {dst for dst, _ in proposals} == set(MEMBERS4) - {"r1"}
    assert {m.value for _, m in proposals} == {b"own"}
    # a view change for a view the leader already entered is late, not a drop
    assert deliver(rep, MsgKind.VIEWCHANGE, "r0", view=1) == []
    assert rep.dropped == 0


def test_no_vote_in_a_view_after_asking_for_a_later_one():
    rep = replica("r3")
    request(rep)
    fire_newest(rep)
    assert rep.vc_target == 1
    acts = deliver(rep, MsgKind.PREPREPARE, "r0", view=0, value=b"v", digest=D)
    acts += certify(rep, MsgKind.PREPARED, pairs(MsgKind.PREPARE, MEMBERS4[:Q]))
    assert sends(acts) == []
    assert rep.voted == set() and rep.dropped == 0
    # the certificate still counts for the next view change
    assert rep.prepared_cert == (0, D, b"v")
    [(dst, vc)] = sends(fire_newest(rep))
    assert (dst, vc.view, vc.cert_view, vc.value) == ("r2", 2, 0, b"v")


def test_every_view_change_doubles_the_timeout():
    rep = replica("r2")
    delays = [a.delay for a in request(rep) if isinstance(a, SetTimer)]
    for _ in range(8):
        delays += [a.delay for a in fire_newest(rep) if isinstance(a, SetTimer)]
    assert delays == [CFG4.view_timeout * 2 ** k for k in range(9)]


# -- late replies ----------------------------------------------------------------

def test_a_promise_after_the_quorum_is_not_a_drop():
    """Under a crash plan a VIEWCHANGE is Paxos's promise: one that reaches
    the new leader after its quorum is late, not a drop."""
    members = tuple(f"p{i}" for i in range(5))
    cfg = config_from_plan(make_plan(Protocol.PAXOS, 5), members, "i")
    rep = PaxosReplica(cfg, "p1", KS)
    request(rep)
    for sender in ("p2", "p3", "p4"):
        deliver(rep, MsgKind.VIEWCHANGE, sender, view=1)
    assert rep.view == 1
    assert deliver(rep, MsgKind.VIEWCHANGE, "p0", view=1) == []
    assert rep.dropped == 0
    # a promise for a view this replica does not lead is still a drop
    assert deliver(rep, MsgKind.VIEWCHANGE, "p3", view=2) == []
    assert rep.dropped == 1


# -- item 1: equivocation within the bound no longer splits the group --------------

@pytest.mark.parametrize("seed,keys,net,timeout", [
    (1119, 7, NetworkConfig(1, 36, gst=7, drop_rate=0.0, seed=1119), 10),
    (4591, 4591,
     NetworkConfig(1, 41, gst=10, drop_rate=0.23521831397724186, seed=4591), 28),
    (559, 559, NetworkConfig(1, 49, gst=67, drop_rate=0.0, seed=559), 15),
])
def test_an_equivocating_leader_within_the_bound_cannot_split_the_group(
        seed, keys, net, timeout):
    res = run_instance(make_plan(Protocol.PBFT, 4), ("m0", "m1", "m2", "m3"),
                       bytes([seed % 256]) * 4, KeyStore(keys), net_cfg=net,
                       faults=(FaultSpec("m0", Behavior.EQUIVOCATE),),
                       view_timeout=timeout, max_tick=20000)
    assert not res.beyond_bound
    assert res.violations == () and res.stalled == ()
    assert len(res.honest_values()) == 1


class Split(AssertionError):
    """Honest replicas decided different values."""


def run_fifo(reps, queue: deque, lost) -> None:
    """Deliver the queued (src, Send) pairs in order, and queue what each
    delivery sends, until none is left; a pair for which `lost(src, send)`
    holds is lost. Timers fire only when a test fires them."""
    now = 0
    while queue:
        src, send = queue.popleft()
        if not lost(src, send):
            now += 1
            acts = reps[send.dst].step(SimEvent(now, now, "msg", src, send.dst,
                                                send.payload, send.label), now)
            queue.extend((send.dst, a) for a in acts if isinstance(a, Send))


@pytest.mark.xfail(strict=True, raises=Split, reason=(
    "ROADMAP item 1: a new view's proposal carries no view-change set that "
    "justifies its value"))
def test_a_new_leaders_own_value_cannot_split_the_honest_replicas():
    """r1, leader of view 1, is byzantine within f_max = 1: it proposes its
    own request y whatever the view changes report. r0 decides v in view 0
    while r1 is cut off; r0's COMMITTED to r2 and r3 is lost, as a drop
    before GST allows. r2 and r3, cut off from r0, report (view 0, v) to r1,
    which proposes y for view 1. An honest r2 or r3 must not decide y."""
    verified: dict = {}
    reps = {m: PBFTReplica(CFG4, m, KS, verified) for m in MEMBERS4}
    reps["r1"]._highest = lambda reports: reps["r1"].request_value
    queue: deque = deque()
    for m, rep in reps.items():
        queue.extend((m, a) for a in request(rep, b"y" if m == "r1" else b"v")
                     if isinstance(a, Send))
    run_fifo(reps, queue, lambda src, send: "r1" in (src, send.dst) or (
        src == "r0" and send.label == "committed"))
    assert reps["r0"].decision.value == b"v"
    for m in ("r2", "r3"):
        assert reps[m].prepared_cert == (0, D, b"v") and reps[m].decision is None
        queue.extend((m, a) for a in fire_newest(reps[m]) if isinstance(a, Send))
    run_fifo(reps, queue, lambda src, send: "r0" in (src, send.dst))
    decided = {m: rep.decision and rep.decision.value for m, rep in reps.items()}
    if {decided[m] for m in ("r0", "r2", "r3")} - {None} != {b"v"}:
        raise Split(decided)


# (protocol, group sizes, the behaviours a faulty member draws from, or
# None for equivocation from tick 0) of each sweep
SWEEPS = {
    "equivocating": (Protocol.PBFT, (4, 7), None),
    "mixed": (Protocol.PBFT, (4, 7), list(Behavior)),
    "crash-plan": (Protocol.PAXOS, (3, 5),
                   [Behavior.CRASH, Behavior.DROP_ALL, Behavior.DELAY_MAX]),
}


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_seeded_sweep_within_the_bound(sweep):
    """1500 seeds x two group sizes: 1 to f_max faulty members, all
    equivocating, or each with a random behaviour the plan's fault model
    has, delay_max 1-60, GST 0-80, drop rate 0 or U(0, 0.3), view timeout
    5-40. A byzantine plan runs at n = 4, 7, a crash plan at n = 3, 5."""
    protocol, sizes, behaviors = SWEEPS[sweep]
    bad = []
    for seed in range(1500):
        for n in sizes:
            rng = random.Random(seed)
            members = tuple(f"m{i}" for i in range(n))
            plan = make_plan(protocol, n)
            faulty = rng.sample(members, rng.randint(1, plan.f_max))
            faults = tuple(FaultSpec(m, Behavior.EQUIVOCATE) if behaviors is None
                           else FaultSpec(m, rng.choice(behaviors),
                                          at_tick=rng.randrange(0, 30))
                           for m in faulty)
            net = NetworkConfig(1, rng.randint(1, 60), gst=rng.randint(0, 80),
                                drop_rate=rng.choice([0.0, rng.uniform(0, 0.3)]),
                                seed=seed)
            res = run_instance(plan, members, bytes([seed % 256]) * 4, KeyStore(seed),
                               net_cfg=net, faults=faults,
                               view_timeout=rng.randint(5, 40), max_tick=20000)
            if res.violations or res.stalled or res.beyond_bound:
                bad.append((seed, n, res.violations, res.stalled))
    assert bad == []


# -- linear cost, as exact counts ------------------------------------------------

@pytest.mark.parametrize("n", [4, 7, 16, 31, 64])
def test_fault_free_decision_costs_five_sends_per_peer(n):
    members = tuple(f"m{i:02d}" for i in range(n))
    res = run_instance(make_plan(Protocol.PBFT, n), members, b"v", KeyStore(3),
                       net_cfg=NetworkConfig(1, 3, seed=n))
    assert res.agreed and len(res.decisions) == n
    labels = Counter(line.split()[4] for line in res.trace
                     if line.split()[4].split(":")[0] in ("msg", "drop", "dead"))
    assert labels == {f"msg:{k}": n - 1 for k in ("preprepare", "prepare", "prepared",
                                                   "commit", "committed")}
    assert res.sent == 5 * (n - 1)
    assert res.replica_drops == dict.fromkeys(members, 0)
