import random

import pytest

from conftest import decode_msg
from otcestack.consensus import (MsgKind, Msg, PBFTReplica, config_from_plan,
                                 encode_msg, run_instance, verify_msg)
from otcestack.keys import KeyStore
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig, SimEvent

MEMBERS4 = ("r0", "r1", "r2", "r3")
MEMBERS7 = tuple(f"r{i}" for i in range(7))


def pbft(members=MEMBERS4, value=b"v1", seed=0, faults=(), **kw):
    ks = KeyStore(5)
    plan = make_plan(Protocol.PBFT, len(members))
    cfg = NetworkConfig(delay_min=1, delay_max=kw.pop("delay_max", 3), seed=seed)
    return run_instance(plan, members, value, ks, net_cfg=cfg, faults=faults, **kw)


# -- message codec ---------------------------------------------------------

def test_message_round_trip_and_signature():
    ks = KeyStore(5)
    msg = Msg("i1", MsgKind.PREPARE, "r0", view=2, digest=b"\x11" * 32)
    wire = encode_msg(ks, msg)
    assert decode_msg(wire) == msg
    assert verify_msg(ks, wire, "i1", ("r0",), 1) == msg
    tampered = wire[:-1] + bytes([wire[-1] ^ 1])
    assert verify_msg(ks, tampered, "i1", ("r0",), 1) is None


def test_garbage_wire_rejected():
    ks = KeyStore(5)
    assert verify_msg(ks, b"not a message", "i1", ("r0",), 1) is None
    assert verify_msg(ks, b"", "i1", ("r0",), 1) is None


@pytest.mark.parametrize("instance,sender", [("i1", "stranger-1"), ("elsewhere", "r0")],
                         ids=["non-member", "other-instance"])
def test_non_member_sender_dropped_before_any_signature_check(instance, sender):
    # a member's wire for another instance is refused on its scope alone
    ks = KeyStore(5)
    verifies = []
    ks.verify = lambda identity, *rest: verifies.append(identity)
    cfg = config_from_plan(make_plan(Protocol.PBFT, 4), MEMBERS4, "i1")
    replica = PBFTReplica(cfg, "r1", ks)
    # signed under another store, so only the replica's checks touch `ks`
    wire = encode_msg(KeyStore(6), Msg(instance, MsgKind.PREPARE, sender,
                                       digest=b"\x11" * 32))
    assert replica.step(SimEvent(1, 1, "msg", "r0", "r1", wire, "prepare"), 1) == []
    assert replica.dropped == 1
    assert verifies == []
    assert sender not in ks._secrets


# -- clean runs ------------------------------------------------------------

def test_clean_run_all_decide_same_value():
    res = pbft(seed=3)
    assert res.agreed
    assert res.stalled == ()
    assert res.violations == ()
    assert not res.beyond_bound
    assert set(res.decisions) == set(MEMBERS4)
    assert res.honest_values() == [b"v1"]
    assert all(d.view == 0 for d in res.decisions.values())


def test_clean_run_message_count_n4():
    # leader proposal to 3 others, then 3 prepares to the leader, its
    # prepared certificate to 3, 3 commits to it and its commit certificate
    # to 3: 3 + 3 + 3 + 3 + 3
    res = pbft(seed=1, delay_max=1)
    assert res.agreed
    assert res.sent == 15
    assert res.delivered == 15
    assert res.dropped == 0 and res.in_flight == 0


def test_clean_run_n7():
    res = pbft(members=MEMBERS7, seed=11)
    assert res.agreed
    assert len(res.decisions) == 7


def test_reruns_are_deterministic():
    a = pbft(seed=42, faults=(FaultSpec("r0", Behavior.CRASH, at_tick=1),))
    b = pbft(seed=42, faults=(FaultSpec("r0", Behavior.CRASH, at_tick=1),))
    assert a.trace == b.trace
    assert a.decisions == b.decisions


# -- single faults within the tolerance bound ------------------------------

def test_crashed_follower_does_not_block():
    res = pbft(seed=7, faults=(FaultSpec("r2", Behavior.CRASH, at_tick=0),))
    assert not res.beyond_bound
    assert res.stalled == ()
    assert res.honest_values() == [b"v1"]
    assert "r2" not in res.decisions


def test_crashed_leader_triggers_view_change():
    res = pbft(seed=7, faults=(FaultSpec("r0", Behavior.CRASH, at_tick=0),))
    assert res.stalled == ()
    assert res.honest_values() == [b"v1"]
    views = {d.view for n, d in res.decisions.items() if n in res.honest}
    assert views and min(views) >= 1


def test_leader_crash_mid_round_preserves_agreement():
    for at in (1, 2, 3, 5, 8):
        res = pbft(seed=at, faults=(FaultSpec("r0", Behavior.CRASH, at_tick=at),))
        assert res.stalled == (), f"crash at {at}"
        assert len(res.honest_values()) == 1, f"crash at {at}"


def test_drop_all_leader_is_tolerated():
    res = pbft(seed=9, faults=(FaultSpec("r0", Behavior.DROP_ALL, at_tick=0),))
    assert res.stalled == ()
    assert len(res.honest_values()) == 1


def test_delay_max_leader_is_tolerated():
    res = pbft(seed=10, delay_max=6,
               faults=(FaultSpec("r0", Behavior.DELAY_MAX, at_tick=0),))
    assert res.stalled == ()
    assert len(res.honest_values()) == 1


def test_equivocating_leader_cannot_split_the_group():
    for seed in range(8):
        res = pbft(seed=seed, faults=(FaultSpec("r0", Behavior.EQUIVOCATE),))
        assert res.violations == (), f"seed {seed}"
        assert res.stalled == (), f"seed {seed}"
        assert len(res.honest_values()) == 1, f"seed {seed}"


def test_equivocating_follower_is_harmless():
    res = pbft(seed=13, faults=(FaultSpec("r2", Behavior.EQUIVOCATE),))
    assert res.violations == ()
    assert res.stalled == ()
    assert res.honest_values() == [b"v1"]


def test_two_faults_in_seven_tolerated():
    res = pbft(members=MEMBERS7, seed=17,
               faults=(FaultSpec("r0", Behavior.CRASH, at_tick=2),
                       FaultSpec("r3", Behavior.EQUIVOCATE)))
    assert not res.beyond_bound
    assert res.stalled == ()
    assert len(res.honest_values()) == 1
    assert res.violations == ()


# -- beyond the bound ------------------------------------------------------

def test_too_many_faults_is_flagged():
    res = pbft(seed=19, faults=(FaultSpec("r0", Behavior.CRASH, at_tick=0),
                                FaultSpec("r1", Behavior.CRASH, at_tick=0)),
               max_tick=3000)
    assert res.beyond_bound
    # two of four crashed: the quorum of 3 is unreachable, honest nodes stall,
    # but safety still holds among any that decided
    assert res.violations == ()
    assert res.stalled != ()


def test_lossy_network_still_agrees_after_stabilization():
    res = None
    ks = KeyStore(5)
    plan = make_plan(Protocol.PBFT, 4)
    cfg = NetworkConfig(delay_min=1, delay_max=4, drop_rate=0.3, gst=60, seed=23)
    res = run_instance(plan, MEMBERS4, b"v1", ks, net_cfg=cfg, max_tick=8000)
    assert res.stalled == ()
    assert res.honest_values() == [b"v1"]


def test_safety_sweep_random_single_faults():
    rng = random.Random(2468)
    behaviors = list(Behavior)
    for _ in range(25):
        members = MEMBERS4 if rng.random() < 0.5 else MEMBERS7
        node = rng.choice(members)
        behavior = rng.choice(behaviors)
        fault = FaultSpec(node, behavior, at_tick=rng.randrange(0, 20))
        res = pbft(members=members, seed=rng.randrange(10**6), faults=(fault,),
                   delay_max=rng.randint(1, 4))
        assert res.violations == ()
        assert res.stalled == ()
        assert len(res.honest_values()) == 1


@pytest.mark.parametrize("max_tick", [5000, 5])
def test_report_accounts_for_every_message(max_tick):
    # votes go to the leader only, so by tick 5 a delay of up to 4 ticks
    # still leaves messages in flight
    cfg = NetworkConfig(delay_min=1, delay_max=4, drop_rate=0.2, gst=30, seed=8)
    res = run_instance(make_plan(Protocol.PBFT, 7), MEMBERS7, b"v1", KeyStore(5),
                       net_cfg=cfg, faults=(FaultSpec("r3", Behavior.CRASH, at_tick=4),),
                       max_tick=max_tick)
    assert res.dropped > 0
    assert res.sent == res.delivered + res.dropped + res.in_flight
    cut = max_tick == 5
    assert res.budget_exhausted == cut and (res.in_flight > 0) == cut
    assert res.agreed != cut and (res.ticks == max_tick) == cut
