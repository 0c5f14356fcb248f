"""Shared builders for randomized tests, a decoder of consensus wires, and
a tx rebuilt with changed fields."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from otcestack import codec  # noqa: E402
from otcestack.bvm import (Task, TaskDAG, chunk_input, lit_input,  # noqa: E402
                           task_input)
from otcestack.consensus import Msg, _msg  # noqa: E402
from otcestack.keys import SIG_LEN  # noqa: E402
from otcestack.ledger import Transaction  # noqa: E402

OPS = ("add", "mul", "concat", "hash")
# the header of every consensus wire: tag, instance, sender, kind
CONS_HEADER = ("cons", str, str, str)


def decode_msg(wire: bytes) -> Msg:
    """The message of a consensus wire, its signature not checked;
    CodecError on a bad shape."""
    fields = codec.unpack(wire[:-SIG_LEN])
    _, instance, sender, kind_s = codec.check_record(fields[:4], CONS_HEADER)
    return _msg(instance, sender, kind_s, fields[4:], wire[-SIG_LEN:])


def rebuilt_tx(tx: Transaction, **changes) -> Transaction:
    """`tx` with `changes` to its five fields, rebuilt by the constructor,
    which packs them and checks the id afresh."""
    fields = {"kind": tx.kind, "payload": tx.payload, "sender": tx.sender,
              "signature": tx.signature, "tx_id": tx.tx_id}
    return Transaction(**{**fields, **changes})


def make_random_dag(rng: random.Random, max_tasks: int = 12,
                    max_chunks: int = 4) -> tuple[TaskDAG, dict[str, bytes]]:
    """Random acyclic workload: inputs only reference earlier tasks."""
    chunks = {f"c{i}": rng.randbytes(rng.randint(1, 6))
              for i in range(rng.randint(0, max_chunks))}
    n_tasks = rng.randint(1, max_tasks)
    tasks: dict[str, Task] = {}
    order = [f"t{i}" for i in range(n_tasks)]
    for i, tid in enumerate(order):
        op = rng.choice(OPS)
        arity = rng.randint(1, 2) if op == "hash" else rng.randint(1, 3)
        inputs = []
        for _ in range(arity):
            roll = rng.random()
            if i > 0 and roll < 0.5:
                inputs.append(task_input(rng.choice(order[:i])))
            elif chunks and roll < 0.75:
                inputs.append(chunk_input(rng.choice(sorted(chunks))))
            else:
                inputs.append(lit_input(rng.randbytes(rng.randint(1, 4))))
        tasks[tid] = Task(tid, op, tuple(inputs))
    return TaskDAG(tasks), chunks


def spread_chunks(rng: random.Random, chunks: dict[str, bytes],
                  members) -> dict[str, dict[str, bytes]]:
    """Give each chunk to one or two members."""
    holders: dict[str, dict[str, bytes]] = {m: {} for m in members}
    for cid, data in sorted(chunks.items()):
        for node in rng.sample(list(members), rng.randint(1, min(2, len(members)))):
            holders[node][cid] = data
    return holders
