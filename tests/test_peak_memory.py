"""Rendering an output holds one copy of its text, and hashing a record
holds none: peaks measured with `tracemalloc`, which counts what the call
allocates and still holds, its result included."""

import gc
import random
import tracemalloc

from otcestack import codec
from otcestack.keys import KeyStore
from otcestack.ledger import Block, TxKind, block_hash, dump_chain, make_genesis, make_tx
from otcestack.runner import run_scenario
from otcestack.scenario import parse_scenario


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
