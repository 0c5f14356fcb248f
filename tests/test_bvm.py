import hashlib
import random

import pytest

from conftest import make_random_dag, spread_chunks
from otcestack import bvm
from otcestack.bvm import (CycleError, Task, TaskDAG, chunk_input, eval_op,
                           execute_collaborative, lit_input, outputs_digest,
                           parse_dag, sequential_oracle, task_input,
                           topo_layers, topo_schedule, verify_results)
from otcestack.keys import KeyStore
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig

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
    assert dag.sinks() == ["d"]
    assert dag.chunk_ids() == {"k"}


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
    assert not report.retried


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


def test_report_carries_quorum_signatures():
    dag, chunks = diamond()
    ks, report = run_distributed(dag, chunks)
    assert verify_results(report, ks, MEMBERS, threshold=len(MEMBERS))
    assert not verify_results(report, ks, MEMBERS, threshold=len(MEMBERS) + 1)
    wrong_ks = KeyStore(4)
    for m in MEMBERS:
        wrong_ks.ensure(m)
    assert not verify_results(report, wrong_ks, MEMBERS, threshold=1)


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
    assert report.retried
    assert report.values == want
    assert all(node != "w1" for node in report.reassigned.values())


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
    assert report.retried and report.reassigned
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
    assert not verify_results(report, ks, MEMBERS, threshold=1)


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
