import hashlib
import random

import pytest

from conftest import make_random_dag, spread_chunks
from otcestack import bvm, codec
from otcestack.bvm import (CycleError, Task, TaskDAG, TaskExecutor, chunk_input,
                           eval_op, execute_collaborative, lit_input,
                           outputs_digest, parse_dag, sequential_oracle,
                           task_input, topo_layers, topo_schedule)
from otcestack.keys import SIG_LEN, KeyStore, seal
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig, Send, SetTimer, SimEvent

MEMBERS = ("w1", "w2", "w3")


def diamond():
    tasks = {
        "a": Task("a", "add", (lit_input(b"\x02"), lit_input(b"\x03"))),
        "b": Task("b", "mul", (task_input("a"), lit_input(b"\x04"))),
        "c": Task("c", "concat", (task_input("a"), chunk_input("k"))),
        "d": Task("d", "hash", (task_input("b"), task_input("c"))),
    }
    return TaskDAG(tasks), {"k": b"\x09"}


# -- operations ------------------------------------------------------------

def test_add_with_carry_and_minimal_encoding():
    assert eval_op("add", [b"\x02", b"\x03"]) == b"\x05"
    assert eval_op("add", [b"\xff", b"\x01"]) == b"\x01\x00"
    assert eval_op("add", [b"\x00\x05", b"\x00"]) == b"\x05"
    assert eval_op("add", [b"\x00"]) == b"\x00"


def test_mul():
    assert eval_op("mul", [b"\x02", b"\x03", b"\x04"]) == b"\x18"
    assert eval_op("mul", [b"\x00", b"\xff"]) == b"\x00"
    assert eval_op("mul", [b"\x01\x00", b"\x01\x00"]) == b"\x01\x00\x00"


def test_concat_and_hash():
    assert eval_op("concat", [b"ab", b"", b"cd"]) == b"abcd"
    assert eval_op("hash", [b"ab", b"cd"]) == hashlib.sha256(b"abcd").digest()


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        eval_op("xor", [b"\x01"])
    with pytest.raises(ValueError):
        Task("t", "xor", (lit_input(b"\x01"),))
    with pytest.raises(ValueError):
        Task("t", "add", ())


def test_arithmetic_matches_integers():
    rng = random.Random(77)
    for _ in range(300):
        xs = [rng.randrange(0, 2**40) for _ in range(rng.randint(1, 4))]
        enc = [x.to_bytes(6, "big") for x in xs]
        assert int.from_bytes(eval_op("add", enc), "big") == sum(xs)
        prod = 1
        for x in xs:
            prod *= x
        assert int.from_bytes(eval_op("mul", enc), "big") == prod


# -- dag structure ---------------------------------------------------------

def test_layers_follow_longest_chain():
    dag, _ = diamond()
    assert topo_layers(dag) == [["a"], ["b", "c"], ["d"]]
    assert dag.sinks == ("d",)
    assert dag.chunk_ids == {"k"}


def test_derived_reads_are_the_operand_order_refs_of_each_kind():
    mixed = Task("m", "concat", (chunk_input("k"), task_input("b"), lit_input(b"\x01"),
                                 task_input("a"), chunk_input("k"), task_input("b")))
    assert (mixed.task_reads, mixed.chunk_reads) == (("b", "a", "b"), ("k", "k"))
    lits = Task("l", "add", (lit_input(b"\x01"), lit_input(b"\x01")))
    assert (lits.task_reads, lits.chunk_reads) == ((), ())
    rng = random.Random(2909)
    for _ in range(100):
        dag, _ = make_random_dag(rng)
        for task in dag.tasks.values():
            assert task.task_reads == tuple(i.ref for i in task.inputs if i.kind == bvm.TASK)
            assert task.chunk_reads == tuple(i.ref for i in task.inputs if i.kind == bvm.CHUNK)


def test_derived_reads_are_not_part_of_equality_or_hash():
    inputs = (task_input("y"), chunk_input("k"))
    one, other = Task("x", "add", inputs), Task("x", "add", inputs)
    object.__setattr__(other, "task_reads", ())
    object.__setattr__(other, "chunk_reads", ("elsewhere",))
    assert one == other and hash(one) == hash(other)
    assert one != Task("x", "add", inputs[::-1])


def test_cycle_detected_with_witness():
    tasks = {
        "a": Task("a", "add", (task_input("c"),)),
        "b": Task("b", "add", (task_input("a"),)),
        "c": Task("c", "add", (task_input("b"),)),
    }
    with pytest.raises(CycleError) as info:
        TaskDAG(tasks)
    witness = info.value.witness
    assert len(witness) >= 2
    assert witness[0] == witness[-1]    # closed walk


def test_self_loop_detected():
    with pytest.raises(CycleError):
        TaskDAG({"a": Task("a", "add", (task_input("a"),))})


def recursive_find_cycle(tasks) -> list[str] | None:
    """The recursive depth-first search `TaskDAG` used to run, kept as the
    reference for the witness the iterative one must return."""
    color: dict[str, int] = {}
    stack: list[str] = []

    def visit(tid):
        color[tid] = 1
        stack.append(tid)
        for dep in tasks[tid].task_reads:
            c = color.get(dep, 0)
            if c == 1:
                return stack[stack.index(dep):] + [dep]
            if c == 0:
                found = visit(dep)
                if found is not None:
                    return found
        stack.pop()
        color[tid] = 2
        return None

    for tid in sorted(tasks):
        if color.get(tid, 0) == 0:
            found = visit(tid)
            if found is not None:
                return found
    return None


def random_graph(rng, n):
    """Tasks t0..t<n-1> with up to three task operands each, cycles allowed."""
    tasks = {}
    for i in range(n):
        deps = [task_input(f"t{rng.randrange(n)}") for _ in range(rng.randint(0, 3))]
        tasks[f"t{i}"] = Task(f"t{i}", "add", tuple(deps) + (lit_input(b"\x01"),))
    return tasks


def test_cycle_witness_matches_the_recursive_search():
    rng = random.Random(4242)
    cycles = 0
    for _ in range(300):
        tasks = random_graph(rng, rng.randint(1, 12))
        want = recursive_find_cycle(tasks)
        if want is None:
            TaskDAG(tasks)
            continue
        cycles += 1
        with pytest.raises(CycleError) as info:
            TaskDAG(tasks)
        assert info.value.witness == want
    assert cycles > 100


def longest_chain_layers(dag):
    """Brute force: a task's layer is the length of its longest dependency
    chain, found by trying every path."""
    def depth(tid):
        return max((1 + depth(d) for d in dag.tasks[tid].task_reads), default=0)

    by_depth: dict[int, list[str]] = {}
    for tid in dag.tasks:
        by_depth.setdefault(depth(tid), []).append(tid)
    return [sorted(by_depth[k]) for k in range(len(by_depth))]


def test_layers_equal_brute_force_longest_chains():
    rng = random.Random(1962)
    for _ in range(200):
        dag, _ = make_random_dag(rng, max_tasks=10)
        assert topo_layers(dag) == longest_chain_layers(dag)


def deep_chain(n):
    lines = ["task t0 add l:01"]
    lines += [f"task t{i} add t:t{i - 1} l:01" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def test_deep_chain_parses_and_evaluates():
    n = 50_000
    dag, chunks = parse_dag(deep_chain(n))
    assert dag.sinks == (f"t{n - 1}",)
    values = sequential_oracle(dag, chunks)
    assert len(values) == n
    assert values[f"t{n - 1}"] == n.to_bytes(2, "big")


def test_unknown_dependency_rejected():
    with pytest.raises(ValueError):
        TaskDAG({"a": Task("a", "add", (task_input("ghost"),))})


def test_oracle_on_diamond():
    dag, chunks = diamond()
    values = sequential_oracle(dag, chunks)
    assert values["a"] == b"\x05"
    assert values["b"] == b"\x14"
    assert values["c"] == b"\x05\x09"
    assert values["d"] == hashlib.sha256(b"\x14" + b"\x05\x09").digest()


# -- scheduling ------------------------------------------------------------

def test_schedule_covers_every_task_deterministically():
    rng = random.Random(818)
    for _ in range(30):
        dag, chunks = make_random_dag(rng)
        holders = {m: set() for m in MEMBERS}
        for cid in chunks:
            holders[rng.choice(MEMBERS)].add(cid)
        s1 = topo_schedule(dag, MEMBERS, holders)
        s2 = topo_schedule(dag, MEMBERS, holders)
        assert s1 == s2
        assert set(s1) == set(dag.tasks)
        assert set(s1.values()) <= set(MEMBERS)


def test_chunk_tasks_go_to_best_holder():
    tasks = {
        "t": Task("t", "concat", (chunk_input("c1"), chunk_input("c2"))),
        "u": Task("u", "concat", (chunk_input("c2"),)),
    }
    dag = TaskDAG(tasks)
    holders = {"w1": {"c1"}, "w2": {"c1", "c2"}, "w3": set()}
    sched = topo_schedule(dag, MEMBERS, holders)
    assert sched["t"] == "w2"           # covers both chunks
    assert sched["u"] == "w2"


def test_chunkless_tasks_round_robin():
    tasks = {f"t{i}": Task(f"t{i}", "add", (lit_input(b"\x01"),)) for i in range(6)}
    sched = topo_schedule(TaskDAG(tasks), MEMBERS, {})
    by_node = sorted(sched.values())
    assert by_node == ["w1", "w1", "w2", "w2", "w3", "w3"]


# -- distributed execution -------------------------------------------------

def run_distributed(dag, chunks, rng=None, members=MEMBERS, faults=(), seed=0,
                    **kw):
    ks = KeyStore(3)
    holders = spread_chunks(rng or random.Random(seed), chunks, members)
    cfg = NetworkConfig(delay_min=1, delay_max=2, seed=seed)
    return ks, execute_collaborative(dag, members, holders, ks, net_cfg=cfg,
                                     faults=faults, **kw)


def test_distributed_matches_oracle_on_diamond():
    dag, chunks = diamond()
    ks, report = run_distributed(dag, chunks)
    want = sequential_oracle(dag, chunks)
    assert report.completed
    assert report.failed_tasks == ()
    assert report.values == want
    assert report.digest == outputs_digest(dag, want)


def test_distributed_matches_oracle_on_random_dags():
    rng = random.Random(2718)
    for _ in range(25):
        dag, chunks = make_random_dag(rng)
        ks, report = run_distributed(dag, chunks, rng=rng,
                                     seed=rng.randrange(10**6))
        want = sequential_oracle(dag, chunks)
        assert report.completed
        assert report.values == want
        assert report.digest == outputs_digest(dag, want)


def test_clean_run_names_every_member_as_signer():
    dag, chunks = diamond()
    _, report = run_distributed(dag, chunks)
    assert report.signers == MEMBERS


def test_crash_triggers_reassignment_and_completion():
    dag, chunks = diamond()
    # crash one worker early; chunks are duplicated so the work can move
    holders = {m: dict(chunks) for m in MEMBERS}
    ks = KeyStore(3)
    report = execute_collaborative(
        dag, MEMBERS, holders, ks, net_cfg=NetworkConfig(delay_min=1, delay_max=2, seed=5),
        faults=(FaultSpec("w1", Behavior.CRASH, at_tick=2),))
    want = sequential_oracle(dag, chunks)
    assert report.completed
    assert report.values == want
    assert all(node != "w1" for node in report.reassigned.values())
    # the takers' values come from the tasks' new assignees and are taken
    assert report.signers == ("w2", "w3")
    assert report.rejected == dict.fromkeys(MEMBERS, 0)


def test_topological_order_computed_once_per_execution(monkeypatch):
    calls = []
    real = bvm.topo_layers

    def counting(dag):
        calls.append(dag)
        return real(dag)

    monkeypatch.setattr(bvm, "topo_layers", counting)
    dag, chunks = diamond()
    holders = {m: dict(chunks) for m in MEMBERS}
    report = execute_collaborative(
        dag, MEMBERS, holders, KeyStore(3),
        net_cfg=NetworkConfig(delay_min=1, delay_max=2, seed=5),
        faults=(FaultSpec("w1", Behavior.CRASH, at_tick=2),))
    assert report.reassigned
    assert calls == [dag]


def test_crash_sweep_with_replicated_chunks():
    rng = random.Random(3141)
    for _ in range(15):
        dag, chunks = make_random_dag(rng)
        holders = {m: dict(chunks) for m in MEMBERS}
        ks = KeyStore(3)
        victim = rng.choice(MEMBERS)
        report = execute_collaborative(
            dag, MEMBERS, holders, ks,
            net_cfg=NetworkConfig(delay_min=1, delay_max=2, seed=rng.randrange(10**6)),
            faults=(FaultSpec(victim, Behavior.CRASH, at_tick=rng.randrange(0, 8)),))
        assert report.completed, f"victim {victim}"
        assert report.values == sequential_oracle(dag, chunks)
        # every value and chunk comes from its owner or a holder
        assert report.rejected == dict.fromkeys(MEMBERS, 0)


CHAIN = "task t0 add l:01 l:02\n" + "".join(
    f"task t{i} add t:t{i - 1} l:01\n" for i in range(1, 40))


@pytest.mark.parametrize("second", ["m0", "m2", "m3", "m4"])
def test_two_crashes_on_a_chain_always_complete(second):
    # m1 stalls the round-robin chain at t1; a second member crashes at
    # any tick, before, during or after the first recovery round
    dag, chunks = parse_dag(CHAIN)
    want = sequential_oracle(dag, chunks)
    members = [f"m{i}" for i in range(5)]
    for tick in range(5, 120, 5):
        report = execute_collaborative(
            dag, members, {}, KeyStore(1), net_cfg=NetworkConfig(1, 2, seed=4),
            faults=(FaultSpec("m1", Behavior.CRASH, at_tick=3),
                    FaultSpec(second, Behavior.CRASH, at_tick=tick)))
        assert report.completed, (second, tick, report.failed_tasks)
        assert report.values == want
        assert report.digest == outputs_digest(dag, want)


def test_tasks_of_a_crashed_sole_holder_run_on_its_broadcast_chunk():
    # m0 alone holds x and crashes once its start broadcast of x is out
    dag, chunks = parse_dag("chunk x 05\ntask a add c:x l:01\ntask b mul t:a l:03\n")
    members = [f"m{i}" for i in range(5)]
    report = execute_collaborative(
        dag, members, {"m0": dict(chunks)}, KeyStore(1),
        net_cfg=NetworkConfig(seed=1), faults=(FaultSpec("m0", Behavior.CRASH, at_tick=1),))
    assert report.completed
    assert report.values == sequential_oracle(dag, chunks)
    assert report.reassigned == {"a": "m1", "b": "m1"}
    assert report.signers == ("m1", "m2", "m3", "m4")


def test_only_tasks_of_crashed_owners_move():
    rng = random.Random(1996)
    moved = 0
    for _ in range(40):
        dag, chunks = make_random_dag(rng)
        members = ("w1", "w2", "w3", "w4")
        victims = rng.sample(members, rng.randint(1, 2))
        faults = tuple(FaultSpec(v, Behavior.CRASH, at_tick=rng.randrange(0, 10))
                       for v in victims)
        report = execute_collaborative(
            dag, members, {m: dict(chunks) for m in members}, KeyStore(3),
            net_cfg=NetworkConfig(1, 3, gst=12, drop_rate=0.2, seed=rng.randrange(10**6)),
            faults=faults)
        down = {f.node for f in faults if f.at_tick <= report.ticks}
        assert report.reassigned.keys() <= {t for t, n in report.schedule.items()
                                            if n in down}
        assert not set(report.reassigned.values()) - set(members)
        assert report.completed and report.values == sequential_oracle(dag, chunks)
        moved += len(report.reassigned)
    assert moved > 0


def test_clean_run_needs_no_recovery():
    rng = random.Random(5)
    for _ in range(10):
        dag, chunks = make_random_dag(rng)
        _, report = run_distributed(dag, chunks, rng=rng, seed=rng.randrange(10**6))
        assert report.completed and report.reassigned == {}
        assert not [line for line in report.trace if "sync" in line or "need" in line]


def test_drops_before_gst_are_recovered_by_needs():
    rng = random.Random(8)
    pulled = 0
    for _ in range(10):
        dag, chunks = make_random_dag(rng)
        holders = spread_chunks(rng, chunks, MEMBERS)
        report = execute_collaborative(
            dag, MEMBERS, holders, KeyStore(3),
            net_cfg=NetworkConfig(1, 3, gst=30, drop_rate=0.3, seed=rng.randrange(10**6)))
        assert report.completed and report.values == sequential_oracle(dag, chunks)
        assert report.signers == MEMBERS and report.reassigned == {}
        pulled += any("msg:need" in line for line in report.trace)
    assert pulled > 0


def test_lossy_rounds_without_gst_do_not_end_recovery():
    # no stabilization tick: any round may lose a need or its answer, so
    # only a round that lost nothing and added nothing ends the recovery
    members = [f"m{i}" for i in range(5)]
    several_rounds = 0
    for i in range(200):
        rng = random.Random(i)
        dag, chunks = make_random_dag(rng)
        crash = FaultSpec(rng.choice(members), Behavior.CRASH, at_tick=rng.randrange(8))
        report = execute_collaborative(
            dag, members, {m: dict(chunks) for m in members}, KeyStore(1),
            net_cfg=NetworkConfig(1, 3, gst=None, drop_rate=0.15, seed=i), faults=(crash,))
        assert report.completed, (i, report.failed_tasks)
        assert report.values == sequential_oracle(dag, chunks)
        several_rounds += sum("local:sync" in line for line in report.trace) > 4
    assert several_rounds > 50


class RoutingRecorder(TaskExecutor):
    """Records every delivered value that no reader's owner or sink
    explains, and every sync that sends two needs of one kind to one peer."""

    strays: list
    repeats: list
    needs: int

    def step(self, event, now):
        acts = super().step(event, now)
        if event.kind == "msg" and event.label == "value":
            ref = codec.unpack(event.payload[:-SIG_LEN])[4]
            readers = self.dag.readers[ref]
            if readers and all(self.owners.get(r) != self.node for r in readers):
                RoutingRecorder.strays.append((self.node, ref))
        if event.kind == "local" and event.label == "sync":
            asks = [(a.dst, codec.unpack(a.payload[:-SIG_LEN])[4])
                    for a in acts if isinstance(a, Send) and a.label == "need"]
            RoutingRecorder.needs += len(asks)
            if len(set(asks)) < len(asks):
                RoutingRecorder.repeats.append((self.node, asks))
        return acts


def test_values_go_only_to_readers_and_each_sync_asks_each_peer_once(monkeypatch):
    monkeypatch.setattr(bvm, "TaskExecutor", RoutingRecorder)
    RoutingRecorder.strays, RoutingRecorder.repeats, RoutingRecorder.needs = [], [], 0
    rng = random.Random(1707)
    members = ("w1", "w2", "w3", "w4")
    not_everyone = 0
    for _ in range(40):
        dag, chunks = make_random_dag(rng)
        holders: dict[str, dict[str, bytes]] = {m: {} for m in members}
        for cid, data in chunks.items():        # two holders: one survives
            for m in rng.sample(members, 2):
                holders[m][cid] = data
        report = execute_collaborative(
            dag, members, holders, KeyStore(3),
            net_cfg=NetworkConfig(1, 3, gst=12, drop_rate=0.25, seed=rng.randrange(10**6)),
            faults=(FaultSpec(rng.choice(members), Behavior.CRASH,
                              at_tick=rng.randrange(10)),))
        assert report.completed and report.values == sequential_oracle(dag, chunks)
        sent = sum("msg:value" in line or "drop:value" in line or "dead:value" in line
                   for line in report.trace)
        not_everyone += sent < len(dag.tasks) * (len(members) - 1)
    assert RoutingRecorder.strays == [] and RoutingRecorder.repeats == []
    assert RoutingRecorder.needs > 0 and not_everyone > 0


def test_a_value_only_its_owner_reads_is_neither_signed_nor_sent(monkeypatch):
    dag, _ = parse_dag("task a add l:01\ntask b add t:a l:01\ntask c add l:02\n")
    signed = []
    real = KeyStore.sign
    monkeypatch.setattr(KeyStore, "sign", lambda ks, node, body: signed.append(
        codec.unpack(body)[4]) or real(ks, node, body))
    report = execute_collaborative(dag, ("m0", "m1"), {}, KeyStore(3),
                                   net_cfg=NetworkConfig(seed=1))
    assert report.schedule == {"a": "m0", "c": "m1", "b": "m0"}
    assert report.completed and report.values == sequential_oracle(dag, {})
    # only the two sinks are signed (and verified, which signs again) and sent
    assert set(signed) == {"b", "c"} and report.sent == 2


def test_sole_holder_crash_fails_cleanly():
    tasks = {"t": Task("t", "concat", (chunk_input("c1"),))}
    dag = TaskDAG(tasks)
    holders = {"w1": {"c1": b"data"}, "w2": {}, "w3": {}}
    ks = KeyStore(3)
    report = execute_collaborative(
        dag, MEMBERS, holders, ks,
        net_cfg=NetworkConfig(delay_min=1, delay_max=1, seed=1),
        faults=(FaultSpec("w1", Behavior.CRASH, at_tick=0),))
    assert not report.completed
    assert "t" in report.failed_tasks
    assert report.digest is None
    assert report.signers == ()


def test_every_member_crashed_ends_at_once_as_incomplete():
    dag, chunks = diamond()
    holders = {m: dict(chunks) for m in MEMBERS}
    report = execute_collaborative(
        dag, MEMBERS, holders, KeyStore(3),
        net_cfg=NetworkConfig(delay_min=1, delay_max=1, seed=1),
        faults=tuple(FaultSpec(m, Behavior.CRASH, at_tick=0) for m in MEMBERS))
    assert not report.completed
    assert report.failed_tasks == tuple(sorted(dag.tasks))
    assert report.digest is None
    assert report.signers == ()
    assert report.reassigned == {}


@pytest.mark.parametrize("max_tick", [5000, 4])
def test_report_accounts_for_every_message(max_tick):
    dag, chunks = make_random_dag(random.Random(6))
    report = execute_collaborative(
        dag, MEMBERS, {m: dict(chunks) for m in MEMBERS}, KeyStore(3),
        net_cfg=NetworkConfig(delay_min=1, delay_max=3, drop_rate=0.2, gst=15, seed=5),
        faults=(FaultSpec("w2", Behavior.CRASH, at_tick=2),), max_tick=max_tick)
    assert report.dropped > 0
    assert report.sent == report.delivered + report.dropped + report.in_flight
    cut = max_tick == 4
    # the cut at tick 4 falls between deliveries, so nothing is in flight
    assert report.budget_exhausted == cut and report.in_flight == 0
    assert report.completed != cut
    assert (report.ticks == max_tick) == cut


@pytest.mark.parametrize("kind,inp", [("value", task_input("a")),
                                      ("chunk", chunk_input("a"))],
                         ids=["value", "chunk"])
def test_signed_data_that_is_not_bytes_is_rejected(kind, inp):
    ks = KeyStore(3)
    dag = TaskDAG({"a": Task("a", "add", (lit_input(b"\x01"),)),
                   "b": Task("b", "add", (inp, lit_input(b"\x01")))})
    executor = TaskExecutor("x", dag, "m1", ("m0", "m1"), {"a": "m0", "b": "m1"},
                            {"m0": {"a": b"\x05"}}, ks)
    wire = seal(ks, "bvm-val", "x", "m0", kind, "a", 5)
    assert executor.step(SimEvent(1, 1, "msg", "m0", "m1", wire, kind), 1) == []
    assert executor.rejected == 1
    assert executor.values == {} and executor.busy is None
    good = seal(ks, "bvm-val", "x", "m0", kind, "a", b"\x05")
    acts = executor.step(SimEvent(2, 2, "msg", "m0", "m1", good, kind), 2)
    assert acts == [SetTimer(1, "exec:b")]
    executor.step(SimEvent(3, 3, "timer", "m1", "m1", b"", "exec:b"), 3)
    assert executor.values["b"] == b"\x06"


def wire_test_executor(ks):
    """m1's executor of execution x, where m0 owns a and m1 owns b, which reads a."""
    dag = TaskDAG({"a": Task("a", "add", (lit_input(b"\x01"),)),
                   "b": Task("b", "add", (task_input("a"), lit_input(b"\x01")))})
    return TaskExecutor("x", dag, "m1", ("m0", "m1", "m2"), {"a": "m0", "b": "m1"}, {}, ks)


@pytest.mark.parametrize("execution_id,signer", [("x", "stranger"), ("elsewhere", "m0")],
                         ids=["non-member", "other-execution"])
def test_a_wire_outside_the_execution_is_rejected_before_any_signature_check(
        execution_id, signer):
    ks = KeyStore(3)
    verifies = []
    ks.verify = lambda identity, *rest: verifies.append(identity)
    executor = wire_test_executor(ks)
    # signed under another store, so only the executor's checks touch `ks`
    wire = seal(KeyStore(4), "bvm-val", execution_id, signer, "value", "a", b"\x05")
    assert executor.step(SimEvent(1, 1, "msg", "m0", "m1", wire, "value"), 1) == []
    assert executor.rejected == 1 and executor.values == {}
    assert verifies == [] and signer not in ks._secrets


def test_a_wire_delivered_by_another_member_than_its_signer_is_one_rejection():
    ks = KeyStore(3)
    executor = wire_test_executor(ks)
    wire = seal(ks, "bvm-val", "x", "m0", "value", "a", b"\x05")
    assert executor.step(SimEvent(1, 1, "msg", "m2", "m1", wire, "value"), 1) == []
    assert executor.rejected == 1 and executor.values == {}
    assert executor.step(SimEvent(2, 2, "msg", "m0", "m1", wire, "value"), 2) == [
        SetTimer(1, "exec:b")]
    assert executor.rejected == 1 and executor.values == {"a": b"\x05"}


def test_chunk_accepted_only_from_a_holder_and_only_if_read():
    ks = KeyStore(3)
    dag = TaskDAG({"a": Task("a", "concat", (chunk_input("k"),))})
    executor = TaskExecutor("x", dag, "m1", ("m0", "m1", "m2"), {"a": "m1"},
                            {"m2": {"k": b"real"}}, ks)

    def chunk_from(src, ref, data, t):
        return executor.step(SimEvent(t, t, "msg", src, "m1",
                                      batch_wire(ks, src, "chunk", ref, data), "chunk"), t)

    assert chunk_from("m0", "k", b"forged", 1) == []
    assert chunk_from("m2", "nobody-reads", b"junk", 2) == []
    assert executor.rejected == 2 and executor.chunks == {}
    assert chunk_from("m2", "k", b"real", 3) == [SetTimer(1, "exec:a")]
    executor.step(SimEvent(4, 4, "timer", "m1", "m1", b"", "exec:a"), 4)
    assert executor.values == {"a": b"real"} and executor.rejected == 2


def batch_wire(ks, src, kind, *items):
    return seal(ks, "bvm-val", "x", src, kind, *items)


def need_wire(ks, src, kind, refs):
    return batch_wire(ks, src, "need", kind, codec.pack(*refs))


def test_sync_takes_moved_tasks_and_needs_what_is_missing():
    ks = KeyStore(3)
    dag, _ = parse_dag("chunk k 07\ntask a add l:01\ntask b concat t:a c:k\n"
                       "task c add t:b l:01\ntask e add l:02\n")
    owners = {"a": "m0", "e": "m2", "b": "m1", "c": "m2"}
    executor = TaskExecutor("x", dag, "m1", ("m0", "m1", "m2"), owners,
                            {"m0": {"k": b"\x07"}, "m2": {"k": b"\x07"}}, ks)
    owners["a"] = "m1"                  # m0 crashed

    def need(dst, kind, refs):
        return Send(dst, need_wire(ks, "m1", kind, refs), "need")

    # b waits on a, now m1's own, and on k, which both holders may send; the
    # sinks e and c are m2's, asked for in schedule order in one need
    assert executor.step(SimEvent(5, 5, "local", "m1", "m1", b"", "sync"), 5) == [
        need("m0", "c", ["k"]), need("m2", "c", ["k"]), need("m2", "t", ["e", "c"]),
        SetTimer(1, "exec:a")]
    assert executor.assigned == ["b", "a"]
    executor.step(SimEvent(6, 6, "local", "m1", "m1", b"", "sync"), 6)
    assert executor.assigned == ["b", "a"]


def lie_as(monkeypatch, node, members, rewrite):
    """Make `node`'s executor send `rewrite(payload, dst, index of dst)` in
    place of each payload it sends."""
    original = bvm.TaskExecutor.step

    def step(self, event, now):
        acts = original(self, event, now)
        if self.node != node:
            return acts
        return [Send(a.dst, rewrite(a.payload, a.dst, members.index(a.dst)), a.label)
                if isinstance(a, Send) else a for a in acts]

    monkeypatch.setattr(bvm.TaskExecutor, "step", step)


def test_members_disagreeing_on_a_sink_do_not_complete(monkeypatch):
    # m1 re-signs its value for the sink d with other data for each receiver
    ks = KeyStore(3)
    dag, chunks = parse_dag("task a add l:01\ntask d add t:a l:02\n")
    members = ("m0", "m1", "m2")

    def vary(payload, dst, index):
        fields = codec.unpack(payload[:-SIG_LEN])
        if fields[3:5] != ("value", "d"):
            return payload
        return seal(ks, "bvm-val", fields[1], "m1", "value", "d", bytes([index]))

    lie_as(monkeypatch, "m1", members, vary)
    report = execute_collaborative(
        dag, members, {}, ks, net_cfg=NetworkConfig(seed=1),
        faults=(FaultSpec("m1", Behavior.EQUIVOCATE),))
    assert report.schedule == {"a": "m0", "d": "m1"}
    assert report.rejected == dict.fromkeys(members, 0)
    assert not report.completed and report.failed_tasks == ("d",)
    assert report.digest is None and report.signers == ()


def test_need_answered_only_for_an_owned_task_or_a_held_chunk():
    ks = KeyStore(3)
    dag = TaskDAG({"a": Task("a", "concat", (chunk_input("k"),)),
                   "b": Task("b", "add", (task_input("a"),)),
                   "z": Task("z", "add", (lit_input(b"\x01"),))})
    executor = TaskExecutor("x", dag, "m1", ("m0", "m1", "m2"),
                            {"a": "m1", "z": "m1", "b": "m2"},
                            {"m1": {"k": b"\x07"}}, ks)

    def need(kind, refs, t=1):
        return executor.step(SimEvent(t, t, "msg", "m2", "m1",
                                      need_wire(ks, "m2", kind, refs), "need"), t)

    def raw_need(kind, data, t=1):
        return executor.step(SimEvent(t, t, "msg", "m2", "m1",
                                      batch_wire(ks, "m2", "need", kind, data), "need"), t)

    def answer(kind, ref, data):
        return Send("m2", batch_wire(ks, "m1", kind, ref, data), kind)

    assert need("t", ["a", "z"]) == []      # owned, not yet computed
    assert need("c", ["k"]) == [answer("chunk", "k", b"\x07")]
    assert executor.rejected == 0
    refused = [
        need("x", ["a"]), need(None, ["a"]),             # unknown kind
        raw_need("t", b""), raw_need("t", b"\xff"),      # not a packed run
        raw_need("t", codec.pack(5)), raw_need("t", codec.pack("a", b"z")),
        raw_need("t", codec.pack(["a"])),
        need("t", ["a", "b"]), need("t", ["ghost"]),     # not owned
        need("t", ["k"]), need("c", ["a"]),              # the other kind's ref
        need("c", ["k", "elsewhere"]),                   # not held
    ]
    assert refused == [[]] * 12 and executor.rejected == 12
    executor.step(SimEvent(2, 2, "local", "m1", "m1", b"", "start"), 2)
    executor.step(SimEvent(3, 3, "timer", "m1", "m1", b"", "exec:a"), 3)
    assert need("t", ["z", "a"], t=4) == [answer("value", "a", b"\x07")]
    assert executor.rejected == 12


def test_clean_run_sends_one_batch_per_holder_and_per_sink_owner():
    # sends = values routed to their readers' owners, plus one chunk batch
    # from each holder and one sink batch from each member owning a sink,
    # each to every peer
    rng = random.Random(2323)
    for members in (MEMBERS, ("w1", "w2", "w3", "w4")):
        for _ in range(20):
            dag, chunks = make_random_dag(rng)
            holders = spread_chunks(rng, chunks, members)
            report = execute_collaborative(
                dag, members, holders, KeyStore(3),
                net_cfg=NetworkConfig(1, 2, seed=rng.randrange(10**6)))
            assert report.completed and report.values == sequential_oracle(dag, chunks)
            owner = report.schedule
            routed = sum(len({owner[r] for r in readers} - {owner[t]})
                         for t, readers in dag.readers.items())
            holding = sum(bool(dag.chunk_ids & set(held)) for held in holders.values())
            sink_owners = len({owner[t] for t in dag.sinks})
            assert report.sent == routed + (len(members) - 1) * (holding + sink_owners)


def test_a_batch_with_one_bad_pair_is_one_rejection_and_stores_nothing():
    ks = KeyStore(3)
    dag = TaskDAG({"a": Task("a", "add", (lit_input(b"\x01"),)),
                   "a2": Task("a2", "add", (lit_input(b"\x02"),)),
                   "b": Task("b", "add", (lit_input(b"\x03"),)),
                   "c": Task("c", "concat", (task_input("a"), task_input("a2"),
                                             task_input("b"), chunk_input("k"),
                                             chunk_input("q")))})
    executor = TaskExecutor("x", dag, "m1", ("m0", "m1", "m2"),
                            {"a": "m0", "a2": "m0", "b": "m2", "c": "m1"},
                            {"m0": {"k": b"K", "z": b"Z"}, "m2": {"q": b"Q"}}, ks)

    def deliver(src, kind, *items, t=1):
        return executor.step(SimEvent(t, t, "msg", src, "m1",
                                      batch_wire(ks, src, kind, *items), kind), t)

    bad = [
        deliver("m0", "value", "a", b"A", "b", b"B"),       # b is m2's task
        deliver("m0", "value", "b", b"B", "a", b"A"),
        deliver("m0", "chunk", "k", b"K", "q", b"Q"),       # m0 does not hold q
        deliver("m0", "chunk", "k", b"K", "z", b"Z"),       # no task reads z
        deliver("m0", "value", "a", b"A", "a2"),            # a ref without data
        deliver("m0", "value", "a", b"A", "a2", 2),         # data that is not bytes
    ]
    assert bad == [[]] * 6 and executor.rejected == 6
    assert executor.values == {} and executor.chunks == {}
    assert deliver("m0", "value", "a", b"A", "a2", b"A2") == []
    assert deliver("m2", "value", "b", b"B") == []
    assert deliver("m0", "chunk", "k", b"K") == []
    assert deliver("m2", "chunk", "q", b"Q") == [SetTimer(1, "exec:c")]
    assert executor.values == {"a": b"A", "a2": b"A2", "b": b"B"}
    assert executor.chunks == {"k": b"K", "q": b"Q"} and executor.rejected == 6


def test_a_need_gets_one_answer_message():
    ks = KeyStore(3)
    dag = TaskDAG({"a": Task("a", "concat", (chunk_input("k"),)),
                   "z": Task("z", "concat", (chunk_input("j"),)),
                   "b": Task("b", "add", (task_input("a"), task_input("z")))})
    executor = TaskExecutor("x", dag, "m1", ("m0", "m1", "m2"),
                            {"a": "m1", "z": "m1", "b": "m2"},
                            {"m1": {"k": b"\x07", "j": b"\x08"}}, ks)
    executor.step(SimEvent(0, 0, "local", "m1", "m1", b"", "start"), 0)
    executor.step(SimEvent(1, 1, "timer", "m1", "m1", b"", "exec:a"), 1)
    executor.step(SimEvent(2, 2, "timer", "m1", "m1", b"", "exec:z"), 2)

    def need(kind, refs):
        return executor.step(SimEvent(3, 3, "msg", "m2", "m1",
                                      need_wire(ks, "m2", kind, refs), "need"), 3)

    assert need("t", ["z", "a", "z"]) == [
        Send("m2", batch_wire(ks, "m1", "value", "z", b"\x08", "a", b"\x07"), "value")]
    assert need("c", ["k", "j"]) == [
        Send("m2", batch_wire(ks, "m1", "chunk", "k", b"\x07", "j", b"\x08"), "chunk")]
    assert executor.rejected == 0


def test_a_sink_batch_lost_before_gst_is_recovered_by_needs():
    # m0 owns a and the sink c, m1 the sink b; every message before tick 3
    # is lost, so both sink batches are, and each member pulls the other's
    dag, _ = parse_dag("task a add l:01\ntask b add l:02\ntask c add t:a l:03\n")
    report = execute_collaborative(dag, ("m0", "m1"), {}, KeyStore(3),
                                   net_cfg=NetworkConfig(gst=3, drop_rate=1.0, seed=1))
    assert report.schedule == {"a": "m0", "b": "m1", "c": "m0"}
    assert report.completed and report.values == sequential_oracle(dag, {})
    assert report.signers == ("m0", "m1") and report.reassigned == {}
    labels = [line.split()[2:5] for line in report.trace]
    assert ["m0", "m1", "drop:value"] in labels and ["m1", "m0", "drop:value"] in labels
    assert ["m0", "m1", "msg:need"] in labels and ["m1", "m0", "msg:need"] in labels
    assert ["m0", "m1", "msg:value"] in labels and ["m1", "m0", "msg:value"] in labels
    # nothing is evaluated twice
    assert sum("timer:exec" in line for line in report.trace) == 3


def test_finished_sinks_wait_until_every_owned_task_is_done():
    # m0 owns the sinks a and c and the task b that c reads; the sink batch
    # goes out once, after c, with both sinks in finishing order
    ks = KeyStore(3)
    dag, _ = parse_dag("task a add l:01\ntask b add l:02\ntask c add t:b l:03\n")
    executor = TaskExecutor("x", dag, "m0", ("m0", "m1"), {"a": "m0", "b": "m0", "c": "m0"},
                            {}, ks)
    assert executor.step(SimEvent(0, 0, "local", "m0", "m0", b"", "start"), 0) == [
        SetTimer(1, "exec:a")]
    assert executor.step(SimEvent(1, 1, "timer", "m0", "m0", b"", "exec:a"), 1) == [
        SetTimer(1, "exec:b")]
    assert executor.step(SimEvent(2, 2, "timer", "m0", "m0", b"", "exec:b"), 2) == [
        SetTimer(1, "exec:c")]
    values = sequential_oracle(dag, {})
    assert executor.step(SimEvent(3, 3, "timer", "m0", "m0", b"", "exec:c"), 3) == [
        Send("m1", batch_wire(ks, "m0", "value", "a", values["a"], "c", values["c"]),
             "value")]


def test_sinks_moved_by_a_sync_go_out_in_a_batch_of_their_own():
    ks = KeyStore(3)
    dag, _ = parse_dag("task a add l:01\ntask b add l:02\ntask c add l:03\n")
    owners = {"a": "m0", "b": "m1", "c": "m0"}
    executor = TaskExecutor("x", dag, "m1", ("m0", "m1", "m2"), owners, {}, ks)
    values = sequential_oracle(dag, {})

    def sink_batch(*refs):
        wire = batch_wire(ks, "m1", "value", *(x for r in refs for x in (r, values[r])))
        return [Send(m, wire, "value") for m in ("m0", "m2")]

    executor.step(SimEvent(0, 0, "local", "m1", "m1", b"", "start"), 0)
    assert executor.step(SimEvent(1, 1, "timer", "m1", "m1", b"", "exec:b"), 1) == (
        sink_batch("b"))
    owners.update(a="m1", c="m1")       # m0 crashed
    executor.step(SimEvent(5, 5, "local", "m1", "m1", b"", "sync"), 5)
    assert executor.step(SimEvent(6, 6, "timer", "m1", "m1", b"", "exec:a"), 6) == [
        SetTimer(1, "exec:c")]
    assert executor.step(SimEvent(7, 7, "timer", "m1", "m1", b"", "exec:c"), 7) == (
        sink_batch("a", "c"))


def test_value_accepted_only_from_the_tasks_assignee(monkeypatch):
    # m1 relabels its value for d as c, m2's task, and re-signs it
    ks = KeyStore(3)
    dag, chunks = parse_dag("chunk x 05\ntask a add c:x l:01\ntask b mul t:a l:03\n"
                            "task c hash t:b\ntask d add t:a l:02\n")
    members = ("m0", "m1", "m2", "m3")

    def relabel(payload, dst, index):
        fields = codec.unpack(payload[:-SIG_LEN])
        if fields[3:5] != ("value", "d"):
            return payload
        return seal(ks, "bvm-val", fields[1], "m1", "value", "c", b"\xee" * 32)

    lie_as(monkeypatch, "m1", members, relabel)
    report = execute_collaborative(
        dag, members, {m: dict(chunks) for m in members}, ks,
        net_cfg=NetworkConfig(seed=1),
        faults=(FaultSpec("m1", Behavior.EQUIVOCATE),))
    assert report.schedule == {"a": "m0", "b": "m0", "d": "m1", "c": "m2"}
    # each honest member refuses the relabelled broadcast and the relabelled
    # answer to its need for d, so only m1 holds the sink d
    assert report.rejected == {"m0": 2, "m1": 0, "m2": 2, "m3": 2}
    assert not report.completed and report.failed_tasks == ("d",)
    assert report.digest is None and report.signers == ()


def test_deterministic_reruns():
    dag, chunks = diamond()
    runs = []
    for _ in range(2):
        _, report = run_distributed(dag, chunks, seed=9)
        runs.append(report)
    assert runs[0].trace == runs[1].trace
    assert runs[0].values == runs[1].values


# -- text form -------------------------------------------------------------

DAG_TEXT = """\
# sample workload
chunk k1 0102
chunk k2 ff

task a add l:01 c:k1
task b mul t:a l:03
task c hash t:b c:k2
"""


def test_parse_round_trips_through_oracle():
    dag, chunks = parse_dag(DAG_TEXT)
    assert set(dag.tasks) == {"a", "b", "c"}
    assert chunks == {"k1": b"\x01\x02", "k2": b"\xff"}
    values = sequential_oracle(dag, chunks)
    assert values["a"] == b"\x01\x03"
    assert values["b"] == b"\x03\x09"
    assert values["c"] == hashlib.sha256(b"\x03\x09" + b"\xff").digest()


def test_parse_skips_inline_comments():
    dag, chunks = parse_dag(
        "chunk left 01ff              # named input bytes (hex)\n"
        "chunk right 02\n"
        "task sum add c:left l:0a     # inputs: c:<chunk>  t:<task>  l:<hex>\n"
        "task scaled mul t:sum c:right\n"
        "  # indented comment\n"
        "task proof hash t:scaled#no space before the comment\n")
    assert set(dag.tasks) == {"sum", "scaled", "proof"}
    assert chunks == {"left": b"\x01\xff", "right": b"\x02"}
    assert dag.tasks["proof"].inputs == (task_input("scaled"),)


def test_parse_errors_name_the_line():
    with pytest.raises(ValueError, match="line 1"):
        parse_dag("chunk only-two\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_dag("chunk k 00\nbogus x\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_dag("chunk k 00\n\ntask t add q:wat\n")
    with pytest.raises(ValueError, match="duplicate task"):
        parse_dag("task t add l:01\ntask t add l:02\n")
    with pytest.raises(ValueError, match="unknown chunk"):
        parse_dag("task t add c:ghost\n")
    for text in ("", "# nothing here\nchunk k 00\n"):
        with pytest.raises(ValueError, match="no tasks"):
            parse_dag(text)
    with pytest.raises(ValueError, match="line 2: bad operand"):
        parse_dag("task a add l:01\ntask b add q:x\ntask c add q:x\n")


def test_parse_gives_one_input_per_token_and_the_hand_built_dag():
    dag, chunks = parse_dag("chunk k 07\n"
                            "task a add l:01 l:01\n"
                            "task b mul t:a c:k t:a l:01\n"
                            "task c concat t:b c:k t:a\n")
    assert chunks == {"k": b"\x07"}
    assert dag == TaskDAG({
        "a": Task("a", "add", (lit_input(b"\x01"), lit_input(b"\x01"))),
        "b": Task("b", "mul", (task_input("a"), chunk_input("k"), task_input("a"),
                               lit_input(b"\x01"))),
        "c": Task("c", "concat", (task_input("b"), chunk_input("k"), task_input("a"))),
    })
    a, b, c = (dag.tasks[tid] for tid in "abc")
    assert (b.task_reads, b.chunk_reads) == (("a", "a"), ("k",))
    assert (c.task_reads, c.chunk_reads) == (("b", "a"), ("k",))
    assert (dag.readers["a"], dag.chunk_ids) == (("b", "c"), {"k"})
    assert a.inputs[0] is a.inputs[1] is b.inputs[3]
    assert b.inputs[0] is b.inputs[2] is c.inputs[2]
    assert b.inputs[1] is c.inputs[1]


# `str.splitlines` also breaks a line at each of these
NOT_NEWLINES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", NOT_NEWLINES)
def test_parse_ends_a_line_only_at_a_newline(brk):
    dag, _ = parse_dag(f"task a add l:01{brk}\ntask b add t:a{brk}l:02 # x{brk}y\n")
    assert dag.tasks["b"].inputs == (task_input("a"), lit_input(b"\x02"))
    with pytest.raises(ValueError, match="line 2: duplicate task 'a'"):
        parse_dag(f"task a add l:01{brk}\ntask a add l:02")


def test_parse_reads_crlf_text_as_lf_text():
    assert parse_dag(DAG_TEXT.replace("\n", "\r\n")) == parse_dag(DAG_TEXT)
