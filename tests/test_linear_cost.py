"""Work grows linearly with the input: per unit of input, the counted calls
at 2x and 4x the size stay within 5% of those at 1x (they may fall, since
fixed costs are spread over more units).

Counted by wrapping the calls, not timed: per ledger tx, `codec.pack`,
`codec.unpack` and HMACs (`KeyStore.sign`, which `KeyStore.verify` calls)
over a run, its dump, load, verification and replay; per DAG task, network
sends, HMACs and evaluations over a lossy run with a crash; per network
send of a fault-free consensus instance of 16, 32 and 64 members,
`codec.pack`, `codec.unpack`, HMACs and `Msg` constructions; per scenario
line and per DAG task, every Python-level call of the parse. Each generator
draws the larger input as an extension of the smaller one, so a count that
grows per unit comes from the code, not from a different input mix.
"""

import random
import sys
from collections import Counter

import pytest

from otcestack import bvm, codec
from otcestack.bvm import execute_collaborative, parse_dag, sequential_oracle
from otcestack.consensus import Msg, run_instance
from otcestack.keys import KeyStore
from otcestack.ledger import dump_chain, load_chain
from otcestack.plan import Protocol, make_plan
from otcestack.runner import audit_chain, run_scenario
from otcestack.scenario import parse_scenario
from otcestack.simnet import Behavior, FaultSpec, Network, NetworkConfig

SIZES = (1, 2, 4)
SLACK = 1.05


@pytest.fixture
def counts(monkeypatch):
    """Counts calls of the wrapped functions by name."""
    seen = Counter()

    def wrap(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kw):
            seen[key] += 1
            return real(*args, **kw)

        monkeypatch.setattr(owner, name, counted)

    wrap(codec, "pack", "pack")
    wrap(codec, "unpack", "unpack")
    wrap(KeyStore, "sign", "hmac")      # `verify` signs again to compare
    wrap(Network, "send", "send")
    wrap(bvm, "eval_op", "eval")
    wrap(Msg, "__init__", "msg")
    return seen


def assert_linear(per_unit: dict[int, dict[str, float]]) -> None:
    sizes = sorted(per_unit)
    base = per_unit[sizes[0]]
    for size in sizes[1:]:
        for key, value in per_unit[size].items():
            assert value <= base[key] * SLACK, (key, size, per_unit)


# -- ledger ----------------------------------------------------------------

NODES = [f"n{i}" for i in range(8)]


def ledger_scenario(blocks: int) -> str:
    """Sandbox churn, eight txs a block; a longer chain extends a shorter."""
    rng = random.Random(13)
    lines = ["seed 5", "net 1 1 - 0.0", "trust 0.2 10", "mapping 0.8 1.0", "policy role"]
    lines += [f"node {n}" for n in NODES]
    lines += [f"edge maj 0.95 {','.join(NODES[:5])}", f"edge byz 0.40 {','.join(NODES[3:])}"]
    edges = {"maj": NODES[:5], "byz": NODES[3:]}
    lines += [f"do register-did {n} role=0{i}" for i, n in enumerate(NODES)]
    live: dict[str, tuple[str, bool]] = {}      # alias -> (edge, suspended)
    created = 0
    for _ in range(blocks):
        for _ in range(8):
            roll = rng.random()
            if roll < 0.5 or not live:
                edge = rng.choice(sorted(edges))
                alias, created = f"s{created}", created + 1
                lines.append(f"do create-otce {alias} group={','.join(edges[edge])} "
                             f"delta={rng.randint(20, 200)} trust=edge:{edge}")
                live[alias] = (edge, False)
                continue
            alias = rng.choice(sorted(live))
            edge, suspended = live[alias]
            by = rng.choice(edges[edge])
            if roll < 0.75:
                lines.append(f"do {'resume' if suspended else 'suspend'} {alias} by={by}")
                live[alias] = (edge, not suspended)
            elif roll < 0.85:
                lines.append(f"do update-plan {alias} trust=edge:{edge} by={by}")
            else:
                lines.append(f"do terminate {alias} by={by}")
                del live[alias]
        lines.append("do seal")
    return "\n".join(lines) + "\n"


def test_ledger_work_per_tx_is_linear(counts, tmp_path):
    per_tx = {}
    for size in SIZES:
        scn = parse_scenario(ledger_scenario(25 * size))
        counts.clear()
        res = run_scenario(scn, base_dir=tmp_path)
        chain = load_chain(dump_chain(res.ledger.chain))
        bad, mismatches, _ = audit_chain(chain, scn, res.keystore)
        assert bad is None and mismatches == []
        txs = sum(len(block.txs) for block in chain)
        assert txs >= 200 * size
        per_tx[size] = {key: counts[key] / txs for key in ("pack", "unpack", "hmac")}
    assert_linear(per_tx)


# -- dag -------------------------------------------------------------------

MEMBERS = ("m0", "m1", "m2", "m3")
WIDTH = 8


def dag_text(layers: int) -> str:
    """`layers` layers of WIDTH tasks, each reading the layer below and now
    and then a chunk; a deeper DAG extends a shallower one."""
    rng = random.Random(21)
    lines = [f"chunk k{i} {rng.randbytes(16).hex()}" for i in range(4)]
    below: list[str] = []
    for depth in range(layers):
        layer = [f"t{depth}_{k}" for k in range(WIDTH)]
        for tid in layer:
            ops = [f"t:{t}" for t in rng.sample(below, min(len(below), rng.randint(1, 2)))]
            if rng.random() < 0.2:
                ops.append(f"c:k{rng.randrange(4)}")
            ops.append("l:" + rng.randbytes(2).hex())
            lines.append(f"task {tid} {rng.choice(bvm.OPS)} {' '.join(ops)}")
        below = layer
    return "\n".join(lines) + "\n"


def test_dag_work_per_task_is_linear(counts):
    per_task = {}
    for size in SIZES:
        dag, chunks = parse_dag(dag_text(15 * size))
        holders = {m: {} for m in MEMBERS}
        for i, cid in enumerate(sorted(chunks)):
            for m in (MEMBERS[i % 4], MEMBERS[(i + 1) % 4]):
                holders[m][cid] = chunks[cid]
        counts.clear()
        report = execute_collaborative(
            dag, MEMBERS, holders, KeyStore(9),
            net_cfg=NetworkConfig(1, 3, gst=20, drop_rate=0.1, seed=17),
            faults=(FaultSpec("m2", Behavior.CRASH, at_tick=10),))
        per_task[size] = {key: counts[key] / len(dag.tasks)
                          for key in ("send", "hmac", "eval")}
        assert report.completed and report.values == sequential_oracle(dag, chunks)
    assert_linear(per_task)


# -- consensus -------------------------------------------------------------

@pytest.mark.parametrize("protocol", [Protocol.PBFT, Protocol.PAXOS])
def test_consensus_work_per_send_is_linear(counts, protocol):
    """A fault-free decision is 5(n - 1) sends under a byzantine plan and
    3(n - 1) under a crash plan, which has no PREPARE round; the packing,
    decoding, signing and message building behind each send stay flat as n
    grows."""
    per_send = {}
    phases = 5 if protocol is Protocol.PBFT else 3
    for n in (16, 32, 64):
        members = [f"m{i:02d}" for i in range(n)]
        counts.clear()
        res = run_instance(make_plan(protocol, n), members, b"value", KeyStore(4))
        assert res.agreed and len(res.decisions) == n
        assert res.sent == counts["send"] == phases * (n - 1)
        per_send[n] = {key: counts[key] / counts["send"]
                       for key in ("pack", "unpack", "hmac", "msg")}
    assert_linear(per_send)


# -- scenario parse --------------------------------------------------------

def setup_lines(pairs: int) -> str:
    """A node, a fault and a chunk line per node; more pairs extend fewer."""
    lines = ["seed 3"]
    lines += [f"node n{i}" for i in range(pairs)]
    lines += [f"fault n{i} crash at={i}" for i in range(pairs)]
    lines += [f"chunk n{i} k{i} {i % 256:02x}" for i in range(pairs)]
    return "\n".join(lines) + "\n"


def python_calls(fn, *args) -> int:
    """The Python-level calls `fn(*args)` makes, counted as profiler `call`
    events (a generator step is one)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_setup_parse_calls_per_line_are_linear():
    per_line = {}
    for size in SIZES:
        text = setup_lines(100 * size)
        scn = parse_scenario(text)
        assert len(scn.faults) == len(scn.chunks) == 100 * size
        per_line[size] = {"calls": python_calls(parse_scenario, text) / text.count("\n")}
    assert_linear(per_line)


def test_dag_parse_calls_per_task_are_linear():
    per_task = {}
    for size in SIZES:
        text = dag_text(15 * size)
        tasks = len(parse_dag(text)[0].tasks)
        assert tasks == 15 * size * WIDTH
        per_task[size] = {"calls": python_calls(parse_dag, text) / tasks}
    assert_linear(per_task)
