"""Byte-value computation DAGs executed collaboratively over the simulated
network.

A task graph maps task ids to operations (add, mul, concat, hash) over
byte-string operands. Operands come from other tasks, inline literals, or
named data chunks held by specific nodes. Arithmetic treats operands as
unsigned big-endian integers and re-encodes results minimally; concat and
hash work on raw bytes.

Scheduling is deterministic: tasks touching chunks go to the holder
covering the most of their chunks (smallest node id on ties), everything
else round-robins over the sorted members, layer by layer with the cursor
carried across layers. Execution charges one tick per task per node, moves
values between nodes as signed messages, and survives executor crashes by
one reassignment round at quiescence that places the missing tasks on the
live members by the same rule. A quorum of members signs the final output
digest so results can be checked without trusting any single node.
A broadcast value reaches every peer as the same wire, so the executors of
one execution share a memo from (sender, wire) to the checked message: each
distinct pair is verified and decoded once, and every rejected delivery is
still counted by its receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import codec
from .keys import SIG_LEN, KeyStore
from .simnet import Behavior, FaultSpec, Network, NetworkConfig, Send, SetTimer, SimEvent

OPS = ("add", "mul", "concat", "hash")

TASK = "t"
LIT = "l"
CHUNK = "c"


@dataclass(frozen=True)
class Input:
    kind: str                 # "t" | "l" | "c"
    ref: str = ""             # task id or chunk id
    literal: bytes = b""

    def __post_init__(self):
        if self.kind not in (TASK, LIT, CHUNK):
            raise ValueError(f"bad input kind {self.kind!r}")


def task_input(task_id: str) -> Input:
    return Input(TASK, ref=task_id)


def lit_input(data: bytes) -> Input:
    return Input(LIT, literal=bytes(data))


def chunk_input(chunk_id: str) -> Input:
    return Input(CHUNK, ref=chunk_id)


@dataclass(frozen=True)
class Task:
    task_id: str
    op: str
    inputs: tuple[Input, ...]

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if not self.inputs:
            raise ValueError(f"task {self.task_id}: no inputs")

    def dep_tasks(self) -> list[str]:
        return [i.ref for i in self.inputs if i.kind == TASK]

    def chunk_refs(self) -> list[str]:
        return [i.ref for i in self.inputs if i.kind == CHUNK]


class CycleError(ValueError):
    def __init__(self, witness: list[str]):
        super().__init__("cycle: " + " -> ".join(witness))
        self.witness = witness


@dataclass(frozen=True)
class TaskDAG:
    tasks: dict[str, Task]

    def __post_init__(self):
        for tid, task in self.tasks.items():
            if task.task_id != tid:
                raise ValueError(f"task key {tid!r} != id {task.task_id!r}")
            for dep in task.dep_tasks():
                if dep not in self.tasks:
                    raise ValueError(f"task {tid}: unknown dependency {dep!r}")
        cyc = self._find_cycle()
        if cyc is not None:
            raise CycleError(cyc)

    def _find_cycle(self) -> list[str] | None:
        color: dict[str, int] = {}      # 1 in progress, 2 done
        stack: list[str] = []

        def visit(tid: str) -> list[str] | None:
            color[tid] = 1
            stack.append(tid)
            for dep in self.tasks[tid].dep_tasks():
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

        for tid in sorted(self.tasks):
            if color.get(tid, 0) == 0:
                found = visit(tid)
                if found is not None:
                    return found
        return None

    def sinks(self) -> list[str]:
        referenced = {dep for t in self.tasks.values() for dep in t.dep_tasks()}
        return sorted(set(self.tasks) - referenced)

    def chunk_ids(self) -> set[str]:
        return {ref for t in self.tasks.values() for ref in t.chunk_refs()}


def topo_layers(dag: TaskDAG) -> list[list[str]]:
    """Kahn layering; each layer sorted. Layer k holds tasks whose longest
    dependency chain has length k."""
    remaining = {tid: set(t.dep_tasks()) for tid, t in dag.tasks.items()}
    layers: list[list[str]] = []
    done: set[str] = set()
    while remaining:
        ready = sorted(tid for tid, deps in remaining.items() if deps <= done)
        if not ready:
            raise CycleError(sorted(remaining))    # unreachable after validation
        layers.append(ready)
        done.update(ready)
        for tid in ready:
            del remaining[tid]
    return layers


def eval_op(op: str, operands: list[bytes]) -> bytes:
    if op == "add":
        return _enc_int(sum(_dec_int(v) for v in operands))
    if op == "mul":
        out = 1
        for v in operands:
            out *= _dec_int(v)
        return _enc_int(out)
    if op == "concat":
        return b"".join(operands)
    if op == "hash":
        return codec.sha(b"".join(operands))
    raise ValueError(f"unknown op {op!r}")


def _dec_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def _enc_int(v: int) -> bytes:
    return v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")


def sequential_oracle(dag: TaskDAG, chunks: dict[str, bytes]) -> dict[str, bytes]:
    """Single-machine reference evaluation; ground truth for the distributed path."""
    values: dict[str, bytes] = {}
    for layer in topo_layers(dag):
        for tid in layer:
            task = dag.tasks[tid]
            operands = [_resolve(i, values, chunks) for i in task.inputs]
            values[tid] = eval_op(task.op, operands)
    return values


def _resolve(inp: Input, values: dict[str, bytes], chunks: dict[str, bytes]) -> bytes:
    if inp.kind == LIT:
        return inp.literal
    if inp.kind == TASK:
        return values[inp.ref]
    if inp.ref not in chunks:
        raise KeyError(f"missing chunk {inp.ref!r}")
    return chunks[inp.ref]


def outputs_digest(dag: TaskDAG, values: dict[str, bytes]) -> bytes:
    return codec.digest("bvm-out", [[tid, values[tid]] for tid in dag.sinks()])


def topo_schedule(dag: TaskDAG, members, holders: dict[str, set[str]]) -> dict[str, str]:
    """Assign every task to a member, in topological order (see `_place`)."""
    order = [tid for layer in topo_layers(dag) for tid in layer]
    return _place(dag, order, sorted(members), holders)


def _place(dag: TaskDAG, order, nodes, holders) -> dict[str, str]:
    """Place the tasks of `order` on `nodes` (sorted). A task that reads
    chunks goes to the node holding most of them, smallest id on ties;
    any other task round-robins over the nodes with one cursor for all."""
    assign: dict[str, str] = {}
    cursor = 0
    for tid in order:
        refs = set(dag.tasks[tid].chunk_refs())
        if refs:
            assign[tid] = max(
                nodes, key=lambda n: len(refs.intersection(holders.get(n, ()))))
        else:
            assign[tid] = nodes[cursor % len(nodes)]
            cursor += 1
    return assign


# -- distributed execution -------------------------------------------------

def _value_body(execution_id: str, kind: str, ref: str, data: bytes) -> bytes:
    return codec.pack("bvm-val", execution_id, kind, ref, data)


def result_body(execution_id: str, digest: bytes) -> bytes:
    return codec.pack("bvm-result", execution_id, digest)


class TaskExecutor:
    """Per-node engine: runs its assigned tasks one at a time, one tick each,
    broadcasting finished values; learns remote values and chunks from
    signed messages.

    `verified` maps (sender, wire) to the message's (kind, ref, data), or
    None when it is refused. The outcome depends only on that pair, the
    members, their keys (each executor ensures its key when built) and the
    execution id, so the executors of one execution may share the memo. An
    executor built without one gets a private memo."""

    def __init__(self, execution_id: str, dag: TaskDAG, node: str, members,
                 assigned: list[str], chunks: dict[str, bytes], keystore: KeyStore,
                 verified: dict[tuple[str, bytes], tuple | None] | None = None):
        self.execution_id = execution_id
        self.dag = dag
        self.node = node
        self.members = tuple(sorted(members))
        self.assigned = list(assigned)
        self.chunks = dict(chunks)
        self.keystore = keystore
        keystore.ensure(node)
        self.verified = {} if verified is None else verified
        self.values: dict[str, bytes] = {}
        self.done: set[str] = set()
        self.busy: str | None = None
        self.rejected = 0

    def _signed(self, kind: str, ref: str, data: bytes) -> bytes:
        body = _value_body(self.execution_id, kind, ref, data)
        return body + self.keystore.sign(self.node, body)

    def _bcast(self, kind: str, ref: str, data: bytes) -> list:
        wire = self._signed(kind, ref, data)
        return [Send(m, wire, kind) for m in self.members if m != self.node]

    def _ready(self, tid: str) -> bool:
        for inp in self.dag.tasks[tid].inputs:
            if inp.kind == TASK and inp.ref not in self.values:
                return False
            if inp.kind == CHUNK and inp.ref not in self.chunks:
                return False
        return True

    def _try_start(self) -> list:
        if self.busy is not None:
            return []
        for tid in self.assigned:
            if tid not in self.done and self._ready(tid):
                self.busy = tid
                return [SetTimer(1, f"exec:{tid}")]
        return []

    def step(self, event: SimEvent, now: int) -> list:
        if event.kind == "local":
            if event.label == "start":
                return self._on_start()
            if event.label == "takeover":
                return self._on_takeover(event.payload)
            return []
        if event.kind == "timer":
            return self._on_exec_timer(event.label)
        return self._on_message(event)

    def _on_start(self) -> list:
        acts = []
        needed = self.dag.chunk_ids()
        for cid in sorted(self.chunks):
            if cid in needed:
                acts += self._bcast("chunk", cid, self.chunks[cid])
        return acts + self._try_start()

    def _on_takeover(self, payload: bytes) -> list:
        fields = codec.unpack(payload)
        _, task_ids, known_values, known_chunks = fields
        for tid in task_ids:
            if tid not in self.assigned:
                self.assigned.append(tid)
        for tid, val in known_values:
            self.values[tid] = val
            self.done.add(tid)
        for cid, val in known_chunks:
            self.chunks.setdefault(cid, val)
        return self._try_start()

    def _on_exec_timer(self, label: str) -> list:
        tid = label.split(":", 1)[1]
        if self.busy != tid:
            return []
        self.busy = None
        if tid in self.done or not self._ready(tid):
            return self._try_start()
        task = self.dag.tasks[tid]
        operands = [_resolve(i, self.values, self.chunks) for i in task.inputs]
        self.values[tid] = eval_op(task.op, operands)
        self.done.add(tid)
        acts = self._bcast("value", tid, self.values[tid])
        return acts + self._try_start()

    def _check(self, src: str, wire: bytes) -> tuple | None:
        if len(wire) <= SIG_LEN:
            return None
        body, sig = wire[:-SIG_LEN], wire[-SIG_LEN:]
        if src not in self.members or not self.keystore.verify(src, body, sig):
            return None
        try:
            return codec.unpack_record(body, "bvm-val", self.execution_id,
                                       object, object, object)[2:]
        except codec.CodecError:
            return None

    def _on_message(self, event: SimEvent) -> list:
        key = (event.src, event.payload)
        try:
            fields = self.verified[key]
        except KeyError:
            fields = self.verified[key] = self._check(*key)
        if fields is None:
            self.rejected += 1
            return []
        kind, ref, data = fields
        if kind == "chunk":
            self.chunks.setdefault(ref, data)
        elif kind == "value":
            if ref in self.dag.tasks:
                self.values.setdefault(ref, data)
                self.done.add(ref)
            else:
                self.rejected += 1
                return []
        else:
            self.rejected += 1
            return []
        return self._try_start()


@dataclass
class ExecutionReport:
    execution_id: str
    completed: bool
    values: dict[str, bytes]
    failed_tasks: tuple[str, ...]
    digest: bytes | None
    signatures: tuple[tuple[str, bytes], ...]
    schedule: dict[str, str]
    reassigned: dict[str, str]
    retried: bool
    ticks: int
    sent: int
    delivered: int
    dropped: int
    in_flight: int
    trace: tuple[str, ...]
    rejected: dict[str, int]      # node -> deliveries its executor refused


def execute_collaborative(dag: TaskDAG, members, holders: dict[str, dict[str, bytes]],
                          keystore: KeyStore, net_cfg: NetworkConfig | None = None,
                          faults=(), execution_id: str = "exec",
                          max_tick: int = 5000) -> ExecutionReport:
    """Run the DAG across the members; one reassignment round on crashes."""
    ordered = tuple(sorted(members))
    order = [tid for layer in topo_layers(dag) for tid in layer]
    schedule = _place(dag, order, ordered, holders)
    assigned: dict[str, list[str]] = {node: [] for node in ordered}
    for tid in order:
        assigned[schedule[tid]].append(tid)
    net = Network(net_cfg if net_cfg is not None else NetworkConfig(seed=0))
    verified: dict[tuple[str, bytes], tuple | None] = {}
    execs: dict[str, TaskExecutor] = {}
    for node in ordered:
        execs[node] = TaskExecutor(execution_id, dag, node, ordered, assigned[node],
                                   holders.get(node, {}), keystore, verified)
        net.register(node, execs[node].step)
    for spec in faults:
        net.inject_fault(spec)
    for node in ordered:
        net.schedule_local(node, 0, b"", "start")
    net.run_until(max_tick)

    def live_nodes() -> list[str]:
        return [n for n in ordered if not net.crashed(n, net.now)]

    def merged_values() -> dict[str, bytes]:
        out: dict[str, bytes] = {}
        for node in live_nodes():
            out.update(execs[node].values)
        return out

    reassigned: dict[str, str] = {}
    failed: list[str] = []
    retried = False
    values = merged_values()
    missing = [tid for tid in order if tid not in values]
    if missing and not net.budget_exhausted:
        retried = True
        live = live_nodes()
        live_chunks: dict[str, bytes] = {}
        for node in live:
            for cid, data in holders.get(node, {}).items():
                live_chunks.setdefault(cid, data)
        placeable = []
        for tid in missing:
            if live and live_chunks.keys() >= set(dag.tasks[tid].chunk_refs()):
                placeable.append(tid)
            else:
                failed.append(tid)
        reassigned = _place(dag, placeable, live, holders)
        takeovers: dict[str, list[str]] = {}
        for tid, node in reassigned.items():
            takeovers.setdefault(node, []).append(tid)
        start = net.now + 1
        for node in sorted(takeovers):
            payload = codec.pack("takeover", takeovers[node],
                                 [[tid, v] for tid, v in sorted(values.items())],
                                 [[cid, v] for cid, v in sorted(live_chunks.items())])
            net.schedule_local(node, start, payload, "takeover")
        if takeovers:
            net.run_until(max_tick)
        values = merged_values()

    all_tasks = set(dag.tasks)
    failed = sorted((all_tasks - set(values)) | set(failed))
    completed = not failed
    digest = outputs_digest(dag, values) if completed else None
    signatures: list[tuple[str, bytes]] = []
    if completed:
        body = result_body(execution_id, digest)
        for node in live_nodes():
            have = execs[node].values
            if all(t in have for t in dag.sinks()):
                signatures.append((node, keystore.sign(node, body)))
    return ExecutionReport(
        execution_id=execution_id,
        completed=completed,
        values=values,
        failed_tasks=tuple(failed),
        digest=digest,
        signatures=tuple(signatures),
        schedule=schedule,
        reassigned=reassigned,
        retried=retried,
        ticks=net.now,
        sent=net.sent,
        delivered=net.delivered,
        dropped=net.dropped,
        in_flight=net.in_flight(),
        trace=tuple(net.trace),
        rejected={node: e.rejected for node, e in execs.items()},
    )


def verify_results(report: ExecutionReport, keystore: KeyStore, members,
                   threshold: int) -> bool:
    """True when at least `threshold` distinct members signed the output digest."""
    if not report.completed or report.digest is None:
        return False
    body = result_body(report.execution_id, report.digest)
    group = set(members)
    seen: set[str] = set()
    for signer, sig in report.signatures:
        if signer in group and signer not in seen:
            if keystore.verify(signer, body, sig):
                seen.add(signer)
    return len(seen) >= threshold


# -- text form -------------------------------------------------------------

def parse_dag(text: str) -> tuple[TaskDAG, dict[str, bytes]]:
    """Parse the line format::

        chunk <id> <hex>
        task <id> <op> <operand> [...]

    where an operand is ``t:<task>``, ``l:<hex>``, or ``c:<chunk>``.
    Raises ValueError naming the offending line."""
    tasks: dict[str, Task] = {}
    chunks: dict[str, bytes] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "chunk":
                if len(parts) != 3:
                    raise ValueError("chunk wants: chunk <id> <hex>")
                if parts[1] in chunks:
                    raise ValueError(f"duplicate chunk {parts[1]!r}")
                chunks[parts[1]] = bytes.fromhex(parts[2])
            elif parts[0] == "task":
                if len(parts) < 4:
                    raise ValueError("task wants: task <id> <op> <operand>...")
                tid = parts[1]
                if tid in tasks:
                    raise ValueError(f"duplicate task {tid!r}")
                tasks[tid] = Task(tid, parts[2],
                                  tuple(_parse_operand(tok) for tok in parts[3:]))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    for tid, task in tasks.items():
        for ref in task.chunk_refs():
            if ref not in chunks:
                raise ValueError(f"task {tid}: unknown chunk {ref!r}")
    return TaskDAG(tasks), chunks


def _parse_operand(tok: str) -> Input:
    if len(tok) < 3 or tok[1] != ":":
        raise ValueError(f"bad operand {tok!r}")
    kind, rest = tok[0], tok[2:]
    if kind == TASK:
        return task_input(rest)
    if kind == CHUNK:
        return chunk_input(rest)
    if kind == LIT:
        return lit_input(bytes.fromhex(rest))
    raise ValueError(f"bad operand kind in {tok!r}")
