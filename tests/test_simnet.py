import dataclasses
import random

import pytest

from otcestack.consensus import Msg, MsgKind
from otcestack.keys import KeyStore
from otcestack.ledger import Transaction, TxKind, make_genesis, make_tx
from otcestack.otce import OTCERecord, OTCEState
from otcestack.plan import Protocol, make_plan
from otcestack.runner import ActionOutcome
from otcestack.simnet import (Behavior, FaultSpec, Network, NetworkConfig,
                              Record, Send, SetTimer, SimEvent)


def echo_ring(net, nodes, hops):
    """Each node forwards a counter to the next until `hops` is used up."""
    def handler_for(i):
        def handler(event, now):
            n = int.from_bytes(event.payload, "big")
            if n == 0:
                return [Record("done", str(now))]
            dst = nodes[(i + 1) % len(nodes)]
            return [Send(dst, (n - 1).to_bytes(4, "big"), "hop")]
        return handler
    for i, node in enumerate(nodes):
        net.register(node, handler_for(i))
    net.schedule_local(nodes[0], 0, hops.to_bytes(4, "big"), "kick")


def flood(net, nodes, fanout_payloads=1):
    """Every node broadcasts once when poked; replies are absorbed."""
    def handler(event, now):
        if event.label != "poke":
            return []
        return [Send(d, event.payload, "flood")
                for d in nodes if d != event.dst
                for _ in range(fanout_payloads)]
    for node in nodes:
        net.register(node, handler)
    for i, node in enumerate(nodes):
        net.schedule_local(node, 0, bytes([i]), "poke")


# -- determinism -----------------------------------------------------------

def test_same_seed_same_trace():
    traces = []
    for _ in range(2):
        net = Network(NetworkConfig(delay_min=1, delay_max=5, drop_rate=0.2,
                                    gst=30, seed=77))
        flood(net, ["a", "b", "c", "d"])
        net.run_until(200)
        traces.append("\n".join(net.trace))
    assert traces[0] == traces[1]


def test_different_seed_different_schedule():
    traces = []
    for seed in (1, 2):
        net = Network(NetworkConfig(delay_min=1, delay_max=5, seed=seed))
        flood(net, ["a", "b", "c", "d"])
        net.run_until(200)
        traces.append("\n".join(net.trace))
    assert traces[0] != traces[1]


def test_trace_lines_are_well_formed():
    net = Network(NetworkConfig(delay_min=1, delay_max=3, seed=5))
    echo_ring(net, ["a", "b", "c"], hops=7)
    net.run_until(100)
    seqs = []
    for line in net.trace:
        parts = line.split()
        assert len(parts) == 6
        tick, seq = int(parts[0]), int(parts[1])
        assert tick >= 0
        seqs.append(seq)
        assert ":" in parts[4]
    assert len(set(seqs)) == len(seqs)


# -- delivery rules --------------------------------------------------------

def test_delays_respect_bounds():
    net = Network(NetworkConfig(delay_min=2, delay_max=6, seed=9))
    sends = {}

    def a_handler(event, now):
        if event.label == "kick":
            sends[now] = True
            return [Send("b", b"x", "probe")]
        return []

    arrivals = []

    def b_handler(event, now):
        arrivals.append(now)
        return []

    net.register("a", a_handler)
    net.register("b", b_handler)
    for t in range(0, 40, 4):
        net.schedule_local("a", t, b"", "kick")
    net.run_until(100)
    assert len(arrivals) == 10
    for sent_at, got_at in zip(sorted(sends), sorted(arrivals)):
        assert 2 <= got_at - sent_at <= 6


def test_events_fire_in_tick_then_seq_order():
    net = Network(NetworkConfig(seed=3))
    seen = []
    net.register("a", lambda e, now: seen.append((now, e.label)) or [])
    net.schedule_local("a", 5, b"", "late")
    net.schedule_local("a", 1, b"", "early")
    net.schedule_local("a", 5, b"", "late2")
    net.run_until(10)
    assert seen == [(1, "early"), (5, "late"), (5, "late2")]


def test_conservation_without_faults():
    net = Network(NetworkConfig(delay_min=1, delay_max=4, seed=21))
    flood(net, ["a", "b", "c", "d", "e"])
    net.run_until(500)
    assert not net.budget_exhausted
    assert net.dropped == 0
    assert net.sent == net.delivered == 20
    assert net.conservation_ok()


def test_drop_rate_loses_messages_before_gst_only():
    cfg = NetworkConfig(delay_min=1, delay_max=1, drop_rate=0.5, gst=50, seed=13)
    net = Network(cfg)
    got = []
    net.register("a", lambda e, now: [Send("b", b"x", "m")] if e.label == "kick" else [])
    net.register("b", lambda e, now: got.append(now) or [])
    for t in range(0, 40):
        net.schedule_local("a", t, b"", "kick")       # lossy window
    for t in range(60, 100):
        net.schedule_local("a", t, b"", "kick")       # after stabilization
    net.run_until(200)
    assert net.dropped > 0 and net.lost == net.dropped
    assert len(got) == 80 - net.dropped
    assert len([t for t in got if t >= 60]) == 40      # none lost after gst
    assert net.conservation_ok()


def test_budget_exhaustion_flagged():
    net = Network(NetworkConfig(delay_min=1, delay_max=1, seed=1))
    echo_ring(net, ["a", "b"], hops=1000)
    net.run_until(10)
    assert net.budget_exhausted and net.now == 10
    assert net.trace[-1].split()[4] == "budget-exhausted"
    assert net.conservation_ok()


# -- faults ----------------------------------------------------------------

def test_crash_silences_node_from_its_tick():
    net = Network(NetworkConfig(seed=2))
    deliveries = []
    net.register("a", lambda e, now: [Send("b", b"x", "m")] if e.label == "kick" else [])
    net.register("b", lambda e, now: deliveries.append(now) or [])
    net.inject_fault(FaultSpec("a", Behavior.CRASH, at_tick=10))
    net.schedule_local("a", 5, b"", "kick")            # before the crash
    net.schedule_local("a", 15, b"", "kick")           # after: silent
    net.run_until(100)
    assert deliveries == [6]
    assert any(" dead:kick" in line for line in net.trace)
    assert net.conservation_ok()


def test_crashed_destination_discards_delivery():
    net = Network(NetworkConfig(seed=2))
    seen = []
    net.register("a", lambda e, now: [Send("b", b"x", "m")] if e.label == "kick" else [])
    net.register("b", lambda e, now: seen.append(now) or [])
    net.inject_fault(FaultSpec("b", Behavior.CRASH, at_tick=0))
    net.schedule_local("a", 0, b"", "kick")
    net.run_until(50)
    assert seen == []
    assert any(" dead:" in line for line in net.trace)
    assert net.dropped == 1 and net.lost == 0       # a fault's drop is no loss
    assert net.conservation_ok()


def test_drop_all_suppresses_outbound_but_node_keeps_receiving():
    net = Network(NetworkConfig(seed=4))
    a_got, b_got = [], []
    net.register("a", lambda e, now: a_got.append(e.label) or (
        [Send("b", b"x", "out")] if e.label == "kick" else []))
    net.register("b", lambda e, now: b_got.append(e.label) or (
        [Send("a", b"y", "back")] if e.label == "kick" else []))
    net.inject_fault(FaultSpec("a", Behavior.DROP_ALL, at_tick=0))
    net.schedule_local("a", 0, b"", "kick")
    net.schedule_local("b", 0, b"", "kick")
    net.run_until(50)
    assert "out" not in b_got               # a's sends vanish
    assert "back" in a_got                  # but a still hears b
    assert net.dropped == 1 and net.lost == 0
    assert net.conservation_ok()


def test_delay_max_lands_at_bound_after_stabilization():
    cfg = NetworkConfig(delay_min=1, delay_max=8, gst=20, seed=6)
    net = Network(cfg)
    arrivals = []
    net.register("a", lambda e, now: [Send("b", b"x", "m")] if e.label == "kick" else [])
    net.register("b", lambda e, now: arrivals.append(now) or [])
    net.inject_fault(FaultSpec("a", Behavior.DELAY_MAX, at_tick=0))
    net.schedule_local("a", 0, b"", "kick")
    net.schedule_local("a", 30, b"", "kick")
    net.run_until(100)
    assert arrivals == [28, 38]             # max(0, 20)+8 and 30+8
    assert net.conservation_ok()


@pytest.mark.parametrize("behavior", [Behavior.DROP_ALL, Behavior.DELAY_MAX])
def test_sender_is_honest_before_its_fault_tick(behavior):
    def run(fault):
        net = Network(NetworkConfig(delay_min=1, delay_max=5, seed=12))
        arrivals = []
        net.register("a", lambda e, now: [Send("b", b"v", "m")])
        net.register("b", lambda e, now: arrivals.append((now, e.payload)) or [])
        if fault:
            net.inject_fault(FaultSpec("a", behavior, at_tick=10))
        for t in (0, 4, 8, 20):
            net.schedule_local("a", t, b"", "kick")
        net.run_until(100)
        return arrivals

    honest, faulty = run(False), run(True)
    assert faulty[:3] == honest[:3]         # sent at 0, 4 and 8
    assert faulty[3:] == {Behavior.DROP_ALL: [], Behavior.DELAY_MAX: [(25, b"v")]}[behavior]


def test_fault_specs_conflict_and_unknown_node():
    net = Network(NetworkConfig(seed=1))
    net.register("a", lambda e, now: [])
    net.inject_fault(FaultSpec("a", Behavior.CRASH))
    with pytest.raises(ValueError):
        net.inject_fault(FaultSpec("a", Behavior.DROP_ALL))
    with pytest.raises(ValueError):
        net.inject_fault(FaultSpec("ghost", Behavior.CRASH))


# -- timers ----------------------------------------------------------------

def test_timer_fires_after_delay():
    net = Network(NetworkConfig(seed=1))
    fired = []

    def handler(event, now):
        if event.label == "kick":
            return [SetTimer(7, "t:1")]
        if event.kind == "timer":
            fired.append((now, event.label))
        return []

    net.register("a", handler)
    net.schedule_local("a", 3, b"", "kick")
    net.run_until(50)
    assert fired == [(10, "t:1")]


def test_stale_timers_drain_to_quiescence():
    net = Network(NetworkConfig(seed=1))
    net.register("a", lambda e, now: [SetTimer(5, "t:x")] if e.label == "kick" else [])
    net.schedule_local("a", 0, b"", "kick")
    net.run_until(100)
    assert not net.budget_exhausted and net.now == 5
    assert net.in_flight() == 0


def test_random_workloads_conserve_messages():
    rng = random.Random(20250818)
    for _ in range(20):
        cfg = NetworkConfig(delay_min=rng.randint(1, 3),
                            delay_max=rng.randint(3, 9),
                            drop_rate=rng.choice([0.0, 0.1, 0.4]),
                            gst=rng.choice([None, 25]),
                            seed=rng.randrange(10**6))
        net = Network(cfg)
        nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
        flood(net, nodes, fanout_payloads=rng.randint(1, 3))
        if rng.random() < 0.5:
            net.inject_fault(FaultSpec(nodes[0], rng.choice(list(Behavior)),
                                       at_tick=rng.randint(0, 10)))
        net.run_until(300)
        assert net.conservation_ok()
        assert not net.budget_exhausted


# -- which records are frozen ---------------------------------------------------

def test_per_message_records_are_slotted():
    records = [SimEvent(1, 2, "msg", "a", "b", b"x", "m"), Send("b", b"x"),
               SetTimer(1, "t"), Record("r")]
    for record in records:
        assert not hasattr(record, "__dict__")


def test_per_tx_records_are_slotted():
    plan = make_plan(Protocol.PBFT, 4)
    records = [make_tx(KeyStore(1), "a", TxKind.CREATE_OTCE, b"p"), make_genesis(),
               OTCERecord("E1", OTCEState.RUNNING, ("a", "b"), 5, 1, plan),
               ActionOutcome(0, "seal", True, "sealed h1:0tx"), plan]
    for record in records:
        assert not hasattr(record, "__dict__")


def test_shared_records_stay_frozen():
    # the wire memo hands one decoded Msg to every replica, and a run and
    # its audit share the chain's blocks and their transactions; a tx's
    # cached encoding and id check hold only while its fields cannot change
    ks = KeyStore(1)
    tx = make_tx(ks, "a", TxKind.CREATE_OTCE, b"p")
    shared = [Msg("i", MsgKind.PREPARE, "a"), tx, make_genesis(),
              FaultSpec("a", Behavior.CRASH)]
    for record in shared:
        field = attribute_names(record)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
    for record in (tx, make_genesis()):
        for field in attribute_names(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, getattr(record, field))


def attribute_names(record) -> tuple[str, ...]:
    """A record's attributes: a tx's five fields and what it derives from
    them, or a dataclass's fields."""
    if isinstance(record, Transaction):
        return ("kind", "payload", "sender", "signature", "tx_id", "wire", "id_ok")
    return tuple(field.name for field in dataclasses.fields(record))
