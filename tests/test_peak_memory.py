"""Rendering an output holds one copy of its text, hashing a record holds
none, a tx holds its bytes once, a finished run holds each fact once, and
a DAG execution holds a wire only while a copy of it is queued: peaks and
retained bytes measured with `tracemalloc`, which counts what the call
allocates and still holds, its result included."""

import gc
import random
import sys
import tracemalloc

from otcestack import codec
from otcestack.bvm import Task, TaskDAG, execute_collaborative, lit_input, task_input
from otcestack.keys import KeyStore
from otcestack.ledger import (Block, Ledger, Transaction, TxKind, block_hash, decode_tx,
                              dump_chain, make_genesis, make_tx, replay_chain)
from otcestack.otce import OTCERegistry, eid_for_tx
from otcestack.plan import PlanMapping
from otcestack.runner import run_scenario
from otcestack.scenario import parse_scenario
from otcestack.simnet import NetworkConfig


def traced_peak(fn, *args):
    """`fn(*args)` and the peak of the memory it allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def traced_retained(fn, *args):
    """`fn(*args)` and the memory it allocated that is still held."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, retained


def test_dump_chain_holds_its_lines_and_one_text():
    rng = random.Random(11)
    ks = KeyStore(3)
    chain = [make_genesis()]
    for height in range(1, 601):
        txs = tuple(make_tx(ks, f"n{i}", TxKind.CREATE_OTCE, rng.randbytes(rng.randint(40, 400)))
                    for i in range(rng.randint(0, 6)))
        status = tuple((i % 3 != 0, "ok" if i % 3 else "plan-infeasible")
                       for i in range(len(txs)))
        prev = chain[-1].hash
        chain.append(Block(height, prev, txs, status, block_hash(height, prev, txs, status)))
    text, peak = traced_peak(dump_chain, chain)
    assert len(text) >= 2**20
    # the block lines and their one join; a second full copy would be 3x
    assert peak <= 2.2 * len(text), (peak, len(text))


def consensus_scenario(instances: int) -> str:
    """One 16-member sandbox and `instances` consensus runs in it, each
    adding about 4.5 KB of short trace lines."""
    nodes = [f"n{i}" for i in range(16)]
    lines = ["seed 9", "net 1 3 - 0.0", "trust 0.2 10", "mapping 0.8 1.0"]
    lines += [f"node {n}" for n in nodes]
    lines += [f"edge e 0.3 {','.join(nodes)}",
              f"do create-otce box group={','.join(nodes)} delta=90 trust=edge:e", "do seal"]
    lines += [f"do consensus box value={i:04x}" for i in range(instances)]
    return "\n".join(lines) + "\n"


def test_trace_log_is_rendered_with_one_copy(tmp_path):
    result = run_scenario(parse_scenario(consensus_scenario(128)), tmp_path)
    outputs, peak = traced_peak(result.outputs)
    trace = len(outputs["trace.log"])
    others = sum(len(text) for name, text in outputs.items() if name != "trace.log")
    assert trace >= 2**19 and others < trace / 20, (trace, others)
    assert peak <= 1.5 * trace + others, (peak, trace, others)


def test_digest_peak_is_set_by_the_largest_item_not_the_record_length():
    rng = random.Random(12)
    blob = rng.randbytes(2**16)
    peaks = []
    for sinks in (500, 2000):
        pairs = [[f"t{i}", rng.randbytes(32)] for i in range(sinks)]
        got, peak = traced_peak(codec.digest, "bvm-out", pairs, blob)
        assert got == codec.sha(codec.pack("bvm-out", pairs, blob))
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 4096, peaks
    assert peaks[1] <= 1.25 * len(blob), peaks


def test_records_of_one_group_share_one_tuple_and_plans_one_status():
    ks = KeyStore(4)
    ledger = Ledger(ks)
    reg = OTCERegistry(ks, PlanMapping())
    ledger.register_contract(reg)
    # one group in two member orders, and another group, all under one trust
    txs = [make_tx(ks, "a", TxKind.CREATE_OTCE, codec.pack("create", group, 10, [0.5], nonce))
           for nonce, group in enumerate([["d", "b", "a", "c"], ["a", "b", "c", "d"],
                                          ["a", "b", "c", "e"]])]
    for tx in txs:
        assert ledger.submit_tx(tx) == (True, "ok")
    block = ledger.seal_block()
    assert block.status == ((True, "pbft"),) * 3
    assert block.status[0] is block.status[1] is block.status[2]
    replayed = OTCERegistry(ks, PlanMapping())
    assert replay_chain(ledger.chain, [replayed]) == []
    for registry in (reg, replayed):
        first, second, other = (registry.records[eid_for_tx(tx.tx_id)].group for tx in txs)
        assert first == ("a", "b", "c", "d") and first is second
        assert other == ("a", "b", "c", "e")


# A tx holds its wire, its id, its sender and the tx object; its payload
# and signature are read out of the wire. A second copy of a 200-byte
# payload alone takes 233 bytes.
TX_BEYOND_WIRE = 250


def test_a_decoded_tx_holds_no_second_copy_of_its_wire_bytes():
    rng = random.Random(13)
    ks = KeyStore(6)
    wires = [make_tx(ks, f"n{i % 8}", TxKind.CREATE_OTCE, rng.randbytes(200)).wire
             for i in range(2000)]
    txs, retained = traced_retained(lambda: [decode_tx(w) for w in wires])
    assert all(tx.wire is w for tx, w in zip(txs, wires))
    per_tx = retained / len(wires)
    assert per_tx <= TX_BEYOND_WIRE, per_tx


def test_a_made_tx_holds_its_payload_only_in_its_wire():
    rng = random.Random(14)
    ks = KeyStore(6)
    senders = [f"n{i}" for i in range(8)]
    for sender in senders:
        ks.sign(sender, b"warm")    # derive each sender's key outside the window
    txs, retained = traced_retained(
        lambda: [make_tx(ks, senders[i % 8], TxKind.CREATE_OTCE, rng.randbytes(200))
                 for i in range(2000)])
    wires = sum(sys.getsizeof(tx.wire) for tx in txs)
    per_tx = (retained - wires) / len(txs)
    assert per_tx <= TX_BEYOND_WIRE, per_tx


def test_payload_and_signature_are_the_wire_fields():
    ks = KeyStore(2)
    made = make_tx(ks, "alice", TxKind.UPDATE_PLAN, codec.pack("update", "E1", [0.5], 300))
    decoded = decode_tx(made.wire)
    built = Transaction(TxKind.SUBMIT_RESULT, bytes(300), "bob é", b"sig", b"an id")
    for tx in (made, decoded, built):
        kind, payload, sender, signature, tx_id = codec.unpack(tx.wire)
        assert (kind, sender, tx_id) == (tx.kind, tx.sender, tx.tx_id)
        assert tx.payload == payload and tx.signature == signature


def ledger_scenario(creates: int) -> str:
    """`creates` sandboxes of 4 to 8 members drawn from one 8-node edge,
    sealed 25 at a time; none expires within the run."""
    rng = random.Random(5)
    nodes = [f"n{i}" for i in range(8)]
    lines = ["seed 5", "trust 0.2 10", "mapping 0.8 1.0"]
    lines += [f"node {n}" for n in nodes]
    lines.append(f"edge e 0.4 {','.join(nodes)}")
    for i in range(creates):
        group = rng.sample(nodes, rng.randint(4, 8))
        lines.append(f"do create-otce s{i} group={','.join(group)} delta=5000 trust=edge:e")
        if i % 25 == 24:
            lines.append("do seal")
    return "\n".join(lines) + "\n"


def test_a_finished_ledger_run_retains_a_bounded_cost_per_action(tmp_path):
    scn = parse_scenario(ledger_scenario(2000))
    result, retained = traced_retained(run_scenario, scn, tmp_path)
    assert result.metrics["txs_ok"] == 2000 and result.replay_ok
    # about 1 KB per action: a tx's wire, id and object, its record, and
    # the action's detail slot; a run that also holds each tx's payload and
    # signature and an outcome object and text per action retains 1.3 KB
    per_action = retained / len(scn.actions)
    assert per_action <= 1150, per_action


def layered_dag(layers: int, width: int) -> TaskDAG:
    """`layers` layers of `width` hash tasks; past the first layer, task i
    reads tasks i and i + 1 (mod `width`) of the layer before."""
    tasks = {}
    for k in range(layers):
        for i in range(width):
            tid = f"l{k}.{i}"
            inputs = ((task_input(f"l{k - 1}.{i}"), task_input(f"l{k - 1}.{(i + 1) % width}"))
                      if k else (lit_input(bytes([i])),))
            tasks[tid] = Task(tid, "hash", inputs)
    return TaskDAG(tasks)


# At the peak of a 1000-task execution on four members, each task costs
# about 760 bytes: its value at each member that holds it, its trace lines
# and its share of the messages in flight. A memo that keeps every
# delivered wire and what it opened to, with a trace digest per payload,
# costs about 1310.
DAG_PEAK_PER_TASK = 1000


def test_a_dag_execution_peak_does_not_hold_its_delivered_wires():
    dag = layered_dag(25, 40)
    members = ("w1", "w2", "w3", "w4")
    ks = KeyStore(3)
    for member in members:
        ks.sign(member, b"warm")    # derive each member's key outside the window
    report, peak = traced_peak(execute_collaborative, dag, members, {}, ks,
                               NetworkConfig(1, 3, seed=2))
    assert report.completed and report.delivered == 972
    per_task = peak / len(dag.tasks)
    assert per_task <= DAG_PEAK_PER_TASK, per_task
