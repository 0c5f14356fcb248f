import random

import pytest

from otcestack import codec
from otcestack.consensus import (MsgKind, PaxosReplica, config_from_plan,
                                 run_instance)
from otcestack.keys import KeyStore
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import Behavior, FaultSpec, Network, NetworkConfig

MEMBERS3 = ("p0", "p1", "p2")
MEMBERS5 = tuple(f"p{i}" for i in range(5))


def paxos(members=MEMBERS3, value=b"m1", seed=0, faults=(), **kw):
    ks = KeyStore(5)
    plan = make_plan(Protocol.PAXOS, len(members))
    cfg = NetworkConfig(delay_min=1, delay_max=kw.pop("delay_max", 3), seed=seed)
    return run_instance(plan, members, value, ks, net_cfg=cfg, faults=faults, **kw)


# -- clean runs ------------------------------------------------------------

def test_clean_run_all_decide():
    res = paxos(seed=3)
    assert res.agreed
    assert res.stalled == () and res.violations == ()
    assert set(res.decisions) == set(MEMBERS3)
    assert res.honest_values() == [b"m1"]


def test_clean_run_n5():
    res = paxos(members=MEMBERS5, seed=8)
    assert res.agreed
    assert len(res.decisions) == 5


def test_reruns_are_deterministic():
    a = paxos(seed=6, faults=(FaultSpec("p0", Behavior.CRASH, at_tick=2),))
    b = paxos(seed=6, faults=(FaultSpec("p0", Behavior.CRASH, at_tick=2),))
    assert a.trace == b.trace


# -- crash tolerance (majority quorums) ------------------------------------

def test_crashed_follower_tolerated():
    res = paxos(seed=5, faults=(FaultSpec("p2", Behavior.CRASH, at_tick=0),))
    assert not res.beyond_bound
    assert res.stalled == ()
    assert res.honest_values() == [b"m1"]


def test_crashed_proposer_another_takes_over():
    res = paxos(seed=5, faults=(FaultSpec("p0", Behavior.CRASH, at_tick=0),))
    assert res.stalled == ()
    assert res.honest_values() == [b"m1"]


def test_proposer_crash_mid_round():
    for at in (1, 2, 3, 4, 6):
        res = paxos(seed=at * 7, faults=(FaultSpec("p0", Behavior.CRASH, at_tick=at),))
        assert res.stalled == (), f"crash at {at}"
        assert len(res.honest_values()) == 1, f"crash at {at}"


def test_two_crashes_in_five_tolerated():
    res = paxos(members=MEMBERS5, seed=12,
                faults=(FaultSpec("p1", Behavior.CRASH, at_tick=0),
                        FaultSpec("p4", Behavior.CRASH, at_tick=3)))
    assert not res.beyond_bound
    assert res.stalled == ()
    assert len(res.honest_values()) == 1


def test_majority_crashed_is_flagged_beyond_bound():
    res = paxos(members=MEMBERS5, seed=15, max_tick=2000,
                faults=(FaultSpec("p0", Behavior.CRASH, at_tick=0),
                        FaultSpec("p1", Behavior.CRASH, at_tick=0),
                        FaultSpec("p2", Behavior.CRASH, at_tick=0)))
    assert res.beyond_bound
    assert res.violations == ()
    assert res.stalled != ()


@pytest.mark.parametrize("behavior,beyond", [
    (Behavior.CRASH, False), (Behavior.DROP_ALL, False), (Behavior.DELAY_MAX, False),
    (Behavior.EQUIVOCATE, True),
])
def test_a_liar_is_outside_a_crash_plan_within_f_max(behavior, beyond):
    res = paxos(members=MEMBERS5, seed=2, faults=(FaultSpec("p3", behavior),))
    assert res.beyond_bound is beyond
    assert res.violations == ()


def test_dueling_proposers_converge():
    """Every member asks for its own value at tick 0: 300 runs each at
    n = 3 and 5, with delays 1-5, GST at none, 40 or 120, loss before it,
    an optional crash and view timeouts 5-40. No two members ever decide
    apart, and once the network stabilizes every live member decides."""
    rng = random.Random(2468)
    ks = KeyStore(5)
    for members in (MEMBERS3, MEMBERS5):
        plan = make_plan(Protocol.PAXOS, len(members))
        for _ in range(300):
            ccfg = config_from_plan(plan, members, "duel",
                                    view_timeout=rng.randint(5, 40))
            gst = rng.choice([None, 40, 120])
            net = Network(NetworkConfig(1, rng.randint(1, 5), gst=gst,
                                        drop_rate=rng.choice([0.0, 0.2]),
                                        seed=rng.randrange(10**6)))
            reps = {m: PaxosReplica(ccfg, m, ks) for m in members}
            for m in members:
                net.register(m, reps[m].step)
                net.schedule_local(m, 0, m.encode(), MsgKind.REQUEST.value)
            crashed = rng.choice((None,) + members)
            if crashed is not None:
                net.inject_fault(FaultSpec(crashed, Behavior.CRASH,
                                           at_tick=rng.randrange(0, 60)))
            net.run_until(5000)
            decided = {m: r.decision.value for m, r in reps.items() if r.decision}
            assert len(set(decided.values())) <= 1, decided
            if gst is not None:
                assert set(members) - set(decided) <= {crashed}, decided


def test_lossy_network_converges_after_stabilization():
    ks = KeyStore(5)
    plan = make_plan(Protocol.PAXOS, 3)
    cfg = NetworkConfig(delay_min=1, delay_max=3, drop_rate=0.3, gst=80, seed=31)
    res = run_instance(plan, MEMBERS3, b"m1", ks, net_cfg=cfg, max_tick=8000)
    assert res.stalled == ()
    assert len(res.honest_values()) == 1


def test_crash_sweep_never_violates_safety():
    rng = random.Random(1357)
    for _ in range(25):
        members = MEMBERS3 if rng.random() < 0.5 else MEMBERS5
        f_budget = (len(members) - 1) // 2
        n_faults = rng.randint(1, f_budget)
        nodes = rng.sample(members, n_faults)
        faults = tuple(FaultSpec(n, Behavior.CRASH, at_tick=rng.randrange(0, 30))
                       for n in nodes)
        res = paxos(members=members, seed=rng.randrange(10**6), faults=faults,
                    delay_max=rng.randint(1, 4))
        assert res.violations == ()
        assert res.stalled == ()
        assert len(res.honest_values()) == 1


# -- accepted-value adoption ------------------------------------------------

def test_new_proposer_adopts_previously_accepted_value():
    # p0, view 0's leader, proposes X; only p1 hears it, and p0 crashes
    # before p1's COMMIT reaches it. View 1's leader p1 must then propose X
    # although p1 asked for Y and p2, which never accepted X, for Z.
    ks = KeyStore(5)
    plan = make_plan(Protocol.PAXOS, 3)
    ccfg = config_from_plan(plan, MEMBERS3, "adopt", view_timeout=40)
    net = Network(NetworkConfig(delay_min=1, delay_max=1, seed=0))
    reps = {m: PaxosReplica(ccfg, m, ks) for m in MEMBERS3}

    def guarded(node):
        def handler(event, now):
            if (event.kind == "msg" and node == "p2" and event.src == "p0"
                    and event.label == MsgKind.PREPREPARE.value):
                return []
            return reps[node].step(event, now)
        return handler

    for m in MEMBERS3:
        net.register(m, guarded(m))
    net.inject_fault(FaultSpec("p0", Behavior.CRASH, at_tick=1))
    net.schedule_local("p0", 0, b"X", MsgKind.REQUEST.value)
    net.schedule_local("p1", 0, b"Y", MsgKind.REQUEST.value)
    net.schedule_local("p2", 0, b"Z", MsgKind.REQUEST.value)
    net.run_until(4000)

    assert reps["p1"].prepared_cert == (1, codec.sha(b"X"), b"X")
    assert reps["p2"].prepared_cert == (1, codec.sha(b"X"), b"X")
    for m in ("p1", "p2"):
        assert reps[m].decision is not None
        assert (reps[m].decision.value, reps[m].decision.view) == (b"X", 1)
    assert net.conservation_ok()
