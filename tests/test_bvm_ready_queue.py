"""The executor's ready queue against the rescan it replaces.

`RescanExecutor` starts tasks the plain way: on every event it walks the
whole `assigned` list and starts the first task that is ready and not yet
finished. The ready queue must pick the same task at every step, so both
executors run the same seeded DAGs and must give the same trace (which
records each start), values, schedule and reassignment.
"""

import random

import pytest

from otcestack import bvm
from otcestack.bvm import Task, TaskDAG, TaskExecutor, chunk_input, lit_input, task_input
from otcestack.keys import KeyStore
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig, SetTimer, SimEvent

from conftest import OPS, spread_chunks


class RescanExecutor(TaskExecutor):
    """Reference: a linear rescan of `assigned` on every event."""

    def _order(self) -> list[str]:
        return self.assigned

    def _try_start(self) -> list:
        if self.busy is not None:
            return []
        for tid in self._order():
            if tid not in self.values and self._ready(tid):
                self.busy = tid
                return [SetTimer(1, f"exec:{tid}")]
        return []


class TakeoverFirstRescan(RescanExecutor):
    """Mutant of the reference: tasks taken over start before the node's own."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.own = len(self.assigned)

    def _order(self) -> list[str]:
        return self.assigned[self.own:] + self.assigned[:self.own]


class CountingExecutor(TaskExecutor):
    """The ready queue, counting `_ready` calls."""

    def __init__(self, *args, **kw):
        self.ready_calls = 0
        super().__init__(*args, **kw)
        RUNS.append(self)

    def _ready(self, tid: str) -> bool:
        self.ready_calls += 1
        return super()._ready(tid)


RUNS: list[CountingExecutor] = []


def random_case(rng: random.Random):
    """A DAG whose chunk ids are drawn from the task-id namespace, with
    repeated operands, a member set, holders, a network and maybe a crash."""
    n_tasks = rng.randint(3, 14)
    ids = [f"x{i}" for i in range(n_tasks + 3)]
    chunks = {cid: rng.randbytes(rng.randint(1, 4))
              for cid in rng.sample(ids, rng.randint(1, 3))}
    tasks: dict[str, Task] = {}
    for i, tid in enumerate(ids[:n_tasks]):
        inputs = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if i and roll < 0.55:
                inputs.append(task_input(rng.choice(ids[:i])))
            elif roll < 0.75:
                inputs.append(chunk_input(rng.choice(sorted(chunks))))
            else:
                inputs.append(lit_input(rng.randbytes(rng.randint(1, 3))))
        if rng.random() < 0.2:
            inputs.append(inputs[0])
        tasks[tid] = Task(tid, rng.choice(OPS), tuple(inputs))
    members = ("w1", "w2", "w3", "w4")[:rng.randint(2, 4)]
    holders = spread_chunks(rng, chunks, members)
    gst = rng.choice([None, rng.randint(4, 20)])
    cfg = NetworkConfig(delay_min=1, delay_max=rng.randint(1, 4), gst=gst,
                        drop_rate=0.0 if gst is None else rng.choice([0.1, 0.3]),
                        seed=rng.randrange(10**6))
    faults = ()
    if rng.random() < 0.6:
        faults = (FaultSpec(rng.choice(members), Behavior.CRASH,
                            at_tick=rng.randrange(0, 8)),)
    return TaskDAG(tasks), members, holders, cfg, faults


def run_with(monkeypatch, executor_cls, case):
    dag, members, holders, cfg, faults = case
    monkeypatch.setattr(bvm, "TaskExecutor", executor_cls)
    report = bvm.execute_collaborative(dag, members, holders, KeyStore(5),
                                       net_cfg=cfg, faults=faults,
                                       execution_id="diff")
    return (report.trace, report.values, list(report.schedule.items()),
            list(report.reassigned.items())), report


CASES = 220


def test_ready_queue_starts_what_the_rescan_starts(monkeypatch):
    rng = random.Random(20261018)
    seen = {"takeover": 0, "drops": 0, "repeated operand": 0,
            "task id equals chunk id": 0, "need": 0}
    for _ in range(CASES):
        case = random_case(rng)
        dag = case[0]
        want, _ = run_with(monkeypatch, RescanExecutor, case)
        RUNS.clear()
        got, report = run_with(monkeypatch, CountingExecutor, case)
        assert got == want
        for ex in RUNS:
            inputs = sum(len({(i.kind, i.ref) for i in dag.tasks[tid].inputs})
                         for tid in ex.assigned)
            assert ex.ready_calls <= inputs + len(ex.assigned)
        seen["takeover"] += bool(report.reassigned)
        seen["drops"] += report.dropped > 0 and case[3].gst is not None
        seen["repeated operand"] += any(len(set(t.inputs)) < len(t.inputs)
                                        for t in dag.tasks.values())
        seen["task id equals chunk id"] += bool(dag.chunk_ids & dag.tasks.keys())
        seen["need"] += any("msg:need" in line for line in report.trace)
    assert min(seen.values()) >= 5, seen


def test_differential_detects_a_takeover_first_order(monkeypatch):
    rng = random.Random(20261018)
    differ = 0
    for _ in range(CASES):
        case = random_case(rng)
        want, _ = run_with(monkeypatch, RescanExecutor, case)
        got, _ = run_with(monkeypatch, TakeoverFirstRescan, case)
        differ += got != want
    assert differ > 0


@pytest.mark.parametrize("repeat", [1, 2, 5])
def test_ready_checks_stay_linear_in_a_wide_fan_in(repeat):
    # One task reading the same value many times, and many tasks reading
    # one value: each waits once per distinct input.
    n = 200
    tasks = {"root": Task("root", "add", (lit_input(b"\x01"),))}
    for i in range(n):
        tasks[f"r{i}"] = Task(f"r{i}", "add", (task_input("root"),) * repeat)
    dag = TaskDAG(tasks)
    RUNS.clear()
    ex = CountingExecutor("x", dag, "m0", ("m0",), dict.fromkeys(tasks, "m0"), {},
                          {}, KeyStore(1))
    acts = ex._on_start()
    for _ in range(n + 1):
        assert len(acts) == 1
        acts = ex.step(SimEvent(0, 0, "timer", "m0", "m0", b"", acts[0].tag), 0)
    assert acts == [] and len(ex.values) == n + 1
    assert ex.ready_calls == n
