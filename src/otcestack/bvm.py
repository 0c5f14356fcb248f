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
carried across layers. Execution charges one tick per task per node and
moves values and chunks only as signed messages, each a batch: a non-empty,
ordered list of (ref, data) pairs under one signature, so a small value
does not pay for a message of its own. Each holder sends every peer one
batch of its chunks at start; a finished value goes at once, alone, to the
current owners of the tasks that read it; and a sink (a task no other task
reads) goes to every member, since every member signs the result, in one
batch per member once it holds the value of every task it owns. The
harness is only the crash model's perfect failure detector: whenever the
network goes quiet while a task or sink fails, it moves the tasks of
crashed owners to live members by the same rule and syncs the live
members. Each then pulls what it needs, the inputs its unfinished tasks
lack and the sinks it lacks, with one signed `need` per peer and input
kind, answered with one batch. Each node keeps a ready queue: a task waits
under the inputs the node lacks and is re-checked only when one of them
first arrives, so the work per task is fixed by its inputs. A node takes a
batch only when every pair passes: a chunk only when some task reads it
and the sender holds it, and a value only from the task's current owner;
any other message counts as one rejection, and none of its pairs is
stored. The run is complete when every task is held by a live member and
every live member holds every sink with the same value; those members sign
the sandbox contract's result message, and the contract accepts it only
when the signers meet the group's security plan. Every message is a
`bvm-val` envelope of its execution (see `keys`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter

from . import codec
from .keys import KeyStore, Peer, seal, unseal
from .simnet import Network, NetworkConfig, NetReport, Send, SetTimer, SimEvent

OPS = ("add", "mul", "concat", "hash")

TASK = "t"
LIT = "l"
CHUNK = "c"

# the shape of each (ref, data) pair a bvm-val message carries
_REF_DATA = (object, bytes)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Task:
    """One operation over its `inputs`. `task_reads` and `chunk_reads` are
    the refs of its task and chunk inputs, in operand order, duplicates
    kept: derived once here for every reader, and not part of equality."""
    task_id: str
    op: str
    inputs: tuple[Input, ...]
    task_reads: tuple[str, ...] = field(init=False, compare=False, repr=False)
    chunk_reads: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if not self.inputs:
            raise ValueError(f"task {self.task_id}: no inputs")
        task_reads, chunk_reads = [], []
        for i in self.inputs:
            if i.kind == TASK:
                task_reads.append(i.ref)
            elif i.kind == CHUNK:
                chunk_reads.append(i.ref)
        object.__setattr__(self, "task_reads", tuple(task_reads))
        object.__setattr__(self, "chunk_reads", tuple(chunk_reads))


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
            for dep in task.task_reads:
                if dep not in self.tasks:
                    raise ValueError(f"task {tid}: unknown dependency {dep!r}")
        cyc = self._find_cycle()
        if cyc is not None:
            raise CycleError(cyc)

    def _find_cycle(self) -> list[str] | None:
        """Depth-first search from each task in sorted order, following
        dependencies in operand order; returns the first back edge's cycle.
        Iterative, so a deep chain cannot exhaust the interpreter stack."""
        color: dict[str, int] = {}      # 1 on the path, 2 done
        for root in sorted(self.tasks):
            if root in color:
                continue
            color[root] = 1
            path = [root]
            pending = [iter(self.tasks[root].task_reads)]
            while pending:
                for dep in pending[-1]:
                    c = color.get(dep, 0)
                    if c == 1:
                        return path[path.index(dep):] + [dep]
                    if c == 0:
                        color[dep] = 1
                        path.append(dep)
                        pending.append(iter(self.tasks[dep].task_reads))
                        break
                else:
                    color[path.pop()] = 2
                    pending.pop()
        return None

    # each computed on first use, once per DAG, however many executors ask

    @cached_property
    def chunk_ids(self) -> frozenset[str]:
        return frozenset(ref for t in self.tasks.values() for ref in t.chunk_reads)

    @cached_property
    def readers(self) -> dict[str, tuple[str, ...]]:
        """Task -> the distinct tasks that read its value."""
        readers: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        for tid, task in self.tasks.items():
            for dep in dict.fromkeys(task.task_reads):
                readers[dep].append(tid)
        return {tid: tuple(r) for tid, r in readers.items()}

    @cached_property
    def sinks(self) -> tuple[str, ...]:
        """The tasks no other task reads, sorted."""
        return tuple(sorted(tid for tid, r in self.readers.items() if not r))


def topo_layers(dag: TaskDAG) -> list[list[str]]:
    """Kahn layering over `dag.readers`; each layer sorted. Layer k holds
    tasks whose longest dependency chain has length k. Linear in tasks plus
    edges, apart from the sort of each layer."""
    readers = dag.readers
    indegree = {tid: len(set(task.task_reads)) for tid, task in dag.tasks.items()}
    depth = dict.fromkeys(dag.tasks, 0)
    queue = [tid for tid, n in indegree.items() if n == 0]
    for tid in queue:                   # grows while it is walked
        for child in readers[tid]:
            depth[child] = max(depth[child], depth[tid] + 1)
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    if len(queue) < len(dag.tasks):     # unreachable after validation
        raise CycleError(sorted(set(dag.tasks) - set(queue)))
    layers: list[list[str]] = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for tid, k in depth.items():
        layers[k].append(tid)
    for layer in layers:
        layer.sort()
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
    return codec.digest("bvm-out", [[tid, values[tid]] for tid in dag.sinks])


def topo_schedule(dag: TaskDAG, members, holders: dict[str, set[str]]) -> dict[str, str]:
    """Assign every task to a member, in topological order (see `_place`);
    the returned dict lists the tasks in that order."""
    order = [tid for layer in topo_layers(dag) for tid in layer]
    return _place(dag, order, sorted(members), holders)


def _place(dag: TaskDAG, order, nodes, holders) -> dict[str, str]:
    """Place the tasks of `order` on `nodes` (sorted). A task that reads
    chunks goes to the node holding most of them, smallest id on ties;
    any other task round-robins over the nodes with one cursor for all."""
    assign: dict[str, str] = {}
    cursor = 0
    for tid in order:
        reads = dag.tasks[tid].chunk_reads
        if reads:
            refs = set(reads)
            assign[tid] = max(
                nodes, key=lambda n: len(refs.intersection(holders.get(n, ()))))
        else:
            assign[tid] = nodes[cursor % len(nodes)]
            cursor += 1
    return assign


# -- distributed execution -------------------------------------------------

class TaskExecutor(Peer):
    """Per-node engine, a `keys.Peer`: runs its assigned tasks one at a
    time, one tick each, and sends each finished value at once to the
    current owners of the tasks that read it; learns remote values and
    chunks from signed messages, each from the envelope's signer only
    (`Peer.step` checks that). A `value` or `chunk`
    message is a batch: a `bvm-val` envelope whose body is one or more (ref,
    data) pairs, laid out flat, and a `need` is the same with one pair,
    (input kind, packed refs). At start the node sends each peer one batch
    of the chunks it holds that some task reads. It holds back the sinks it
    finishes, counting the owned tasks whose value it lacks, and sends them
    to every peer in one batch whenever that count falls to zero, so the
    check is O(1) per event. `owners` (task -> its current owner, in
    topological order) and `holders` (node -> the chunks it holds) are the
    execution's maps, shared by every executor: the node runs the tasks it
    owns, starts with its own chunks, and takes a batch by the rule in the
    module docstring. The failure detector moves tasks in `owners` in place
    and then sends a `sync`: the node takes the tasks newly given to it and
    asks for what it needs, the inputs its unfinished tasks lack and the
    sinks it lacks, with one signed `need` per peer and input kind: the
    tasks the peer owns, in topological order, or the chunks it holds, in id
    order (every holder is asked). It answers a need whose every ref is a
    task it owns or a chunk it holds with one batch of those it has, to the
    requester alone; any other need counts as one rejection.

    It starts the first task in `assigned` order that is ready (every task
    input in `values`, every chunk input in `chunks`) and not yet finished;
    tasks taken over after a crash come after the node's own, and one whose
    value it already holds is not run again. A ready queue finds that task
    without rescanning: a task is known by its position in `assigned`,
    which waits under every distinct input the node lacks, in one table per
    input kind (TASK, CHUNK) since a task and a chunk may share an id. The
    first time a value or chunk becomes known its waiters are re-checked,
    and those now ready go on a min-heap of positions; a start pops the
    heap, skipping finished tasks. Each task is checked at most once per
    distinct input, so the work per task is fixed however many events the
    node sees. `rejected` is `dropped`: the deliveries it refused."""

    _SIGNER = itemgetter(0)

    def __init__(self, execution_id: str, dag: TaskDAG, node: str, members,
                 owners: dict[str, str], holders: dict[str, dict[str, bytes]],
                 keystore: KeyStore,
                 verified: dict[bytes, tuple | None] | None = None):
        super().__init__(node, keystore, tuple(sorted(members)), verified)
        self.execution_id = execution_id
        self.dag = dag
        self.peers = tuple(m for m in self.members if m != node)
        self.owners = owners
        self.holders = holders
        self.chunks = dict(holders.get(node, {}))
        self.values: dict[str, bytes] = {}
        self.busy: str | None = None
        self._heap: list[int] = []          # positions in `assigned`
        self._waiting: dict[str, dict[str, list[int]]] = {TASK: {}, CHUNK: {}}
        self.assigned: list[str] = []
        self._owned: set[str] = set()
        self._unfinished = 0                # owned tasks whose value it lacks
        self._sinks: list[tuple[str, bytes]] = []   # finished, not yet sent
        for tid, owner in owners.items():
            if owner == node:
                self._assign(tid)

    step = Peer.step
    rejected = property(attrgetter("dropped"))

    def _send(self, dsts, kind: str, pairs) -> list:
        """One signed wire of `pairs` to each of `dsts`; nothing is signed
        for no destination or no pair."""
        if not dsts or not pairs:
            return []
        wire = seal(self.keystore, "bvm-val", self.execution_id, self.node, kind,
                    *chain.from_iterable(pairs))
        return [Send(m, wire, kind) for m in dsts]

    def _ready(self, tid: str) -> bool:
        task = self.dag.tasks[tid]
        for ref in task.task_reads:
            if ref not in self.values:
                return False
        for ref in task.chunk_reads:
            if ref not in self.chunks:
                return False
        return True

    def _assign(self, tid: str) -> None:
        pos = len(self.assigned)
        self.assigned.append(tid)
        self._owned.add(tid)
        if tid not in self.values:
            self._unfinished += 1
        task = self.dag.tasks[tid]
        lacking = [(TASK, ref) for ref in dict.fromkeys(task.task_reads)
                   if ref not in self.values]
        lacking += [(CHUNK, ref) for ref in dict.fromkeys(task.chunk_reads)
                    if ref not in self.chunks]
        for kind, ref in lacking:
            self._waiting[kind].setdefault(ref, []).append(pos)
        if not lacking:
            heapq.heappush(self._heap, pos)

    def _learned(self, kind: str, ref: str) -> None:
        """The value (TASK) or chunk (CHUNK) `ref` just became known."""
        for pos in self._waiting[kind].pop(ref, ()):
            if self._ready(self.assigned[pos]):
                heapq.heappush(self._heap, pos)

    def _try_start(self) -> list:
        if self.busy is not None:
            return []
        while self._heap:
            tid = self.assigned[heapq.heappop(self._heap)]
            if tid not in self.values:
                self.busy = tid
                return [SetTimer(1, f"exec:{tid}")]
        return []

    def _on_local(self, event: SimEvent, now: int) -> list:
        if event.label == "start":
            return self._on_start()
        if event.label == "sync":
            return self._on_sync()
        return []

    def _on_start(self) -> list:
        needed = self.dag.chunk_ids
        pairs = [(cid, self.chunks[cid]) for cid in sorted(self.chunks) if cid in needed]
        return self._send(self.peers, "chunk", pairs) + self._try_start()

    def _on_sync(self) -> list:
        for tid, owner in self.owners.items():
            if owner == self.node and tid not in self._owned:
                self._assign(tid)
        wanted = self._waiting[TASK].keys() | {
            tid for tid in self.dag.sinks if tid not in self.values}
        asks: dict[tuple[str, str], list[str]] = {}     # (peer, kind) -> refs
        for tid, owner in self.owners.items():
            if tid in wanted and owner != self.node:
                asks.setdefault((owner, TASK), []).append(tid)
        for cid in sorted(self._waiting[CHUNK]):
            for m in self.peers:
                if cid in self.holders.get(m, ()):
                    asks.setdefault((m, CHUNK), []).append(cid)
        acts = [act for (m, kind), refs in sorted(asks.items())
                for act in self._send([m], "need", [(kind, codec.pack(*refs))])]
        return acts + self._try_start()

    def _on_timer(self, event: SimEvent, now: int) -> list:
        tid = self.busy             # values are keyed by the DAG's own id
        if tid is None or event.label != f"exec:{tid}":
            return []
        self.busy = None
        task = self.dag.tasks[tid]
        operands = [_resolve(i, self.values, self.chunks) for i in task.inputs]
        value = self.values[tid] = eval_op(task.op, operands)
        self._unfinished -= 1
        self._learned(TASK, tid)
        readers = self.dag.readers[tid]
        if readers:                     # the current owners of its readers, at once
            owners = {self.owners.get(r) for r in readers}
            acts = self._send([m for m in self.peers if m in owners], "value",
                              [(tid, value)])
        else:                           # a sink: every member signs the result
            self._sinks.append((tid, value))
            acts = []
        if not self._unfinished:        # every owned task done: send its sinks
            acts += self._send(self.peers, "value", self._sinks)
            self._sinks = []
        return acts + self._try_start()

    def _open(self, wire: bytes) -> tuple | None:
        """The message's signer, its kind and its (ref, data) pairs, or None."""
        opened = unseal(self.keystore, wire, "bvm-val", self.execution_id, self.members)
        if opened is None:
            return None
        signer, kind, body = opened
        try:
            pairs = tuple(codec.check_record(body[i:i + 2], _REF_DATA)
                          for i in range(0, len(body), 2))
        except codec.CodecError:
            return None
        return (signer, kind, pairs) if pairs else None

    def _on_msg(self, opened: tuple, now: int) -> list:
        src, kind, pairs = opened
        if kind == "need":
            return self._on_need(src, pairs)
        if kind == "chunk":
            held, ids = self.holders.get(src, ()), self.dag.chunk_ids
            ok = all(ref in ids and ref in held for ref, _ in pairs)
            known, input_kind = self.chunks, CHUNK
        elif kind == "value":
            owners = self.owners
            ok = all(owners.get(ref) == src for ref, _ in pairs)
            known, input_kind = self.values, TASK
        else:
            ok = False
        if not ok:                      # one bad pair refuses the whole batch
            self.dropped += 1
            return []
        for ref, data in pairs:
            if ref not in known:
                known[ref] = data
                self._learned(input_kind, ref)
        return self._try_start()

    def _on_need(self, src: str, pairs) -> list:
        """Answer a need for the values (input kind TASK) of tasks this node
        owns, or the chunks (CHUNK) it holds, with one message of those it
        has. A need is one pair: the input kind and the packed refs. A need
        that names none, or anything else, is refused whole; a ref that is
        not a str matches no task or chunk id."""
        kind, data = pairs[0]
        try:
            refs = dict.fromkeys(codec.unpack(data)) if len(pairs) == 1 else ()
        except codec.CodecError:
            refs = ()
        if refs and kind == TASK and all(self.owners.get(ref) == self.node for ref in refs):
            return self._send([src], "value",
                              [(ref, self.values[ref]) for ref in refs if ref in self.values])
        held = self.holders.get(self.node, {})
        if refs and kind == CHUNK and all(
                ref in held and ref in self.dag.chunk_ids for ref in refs):
            return self._send([src], "chunk", [(ref, held[ref]) for ref in refs])
        self.dropped += 1
        return []


@dataclass
class ExecutionReport(NetReport):
    execution_id: str
    completed: bool
    values: dict[str, bytes]
    failed_tasks: tuple[str, ...]
    digest: bytes | None
    signers: tuple[str, ...]      # the sorted live members if completed, else ()
    schedule: dict[str, str]      # task -> its first owner, in topological order
    reassigned: dict[str, str]    # task -> its last owner, for each moved task
    rejected: dict[str, int]      # node -> deliveries its executor refused


def _outcome(dag: TaskDAG, held: list[dict[str, bytes]]):
    """The union of the live members' values (`held` lists each one's), and
    the failed tasks: those no live member holds, and the sinks some live
    member lacks or holds with another value."""
    values: dict[str, bytes] = {}
    for own in held:
        values.update(own)
    failed = tuple(sorted(
        tid for tid in dag.tasks if tid not in values or (
            not dag.readers[tid] and any(own.get(tid) != values[tid] for own in held))))
    return values, failed


def execute_collaborative(dag: TaskDAG, members, holders: dict[str, dict[str, bytes]],
                          keystore: KeyStore, net_cfg: NetworkConfig = NetworkConfig(),
                          faults=(), execution_id: str = "exec",
                          max_tick: int = 5000) -> ExecutionReport:
    """Run the DAG across the members. Whenever the network goes quiet while
    a task or sink fails by `_outcome`'s rule, act as the failure detector:
    move the tasks of crashed owners to live members and sync every live
    member, so each pulls what it needs. Stop when nothing fails, when a
    round adds no value, finds no new crash and loses no message to the
    link, or when the budget runs out. A moved task whose value its new
    owner does not hold is evaluated again by that owner, since a value is
    taken only from its task's owner; so are the sinks a crashed member
    finished but still held back for its sink batch. `values` is the union
    of the live members' own values, for audit only."""
    ordered = tuple(sorted(members))
    schedule = topo_schedule(dag, ordered, holders)
    owners = dict(schedule)
    net = Network(net_cfg)
    execs = {node: TaskExecutor(execution_id, dag, node, ordered, owners, holders,
                                keystore, net.memo)
             for node in ordered}
    net.start({node: e.step for node, e in execs.items()}, faults, b"", "start", max_tick)

    last = None             # (live members, values held) before a lossless round
    while True:
        live = [n for n in ordered if not net.crashed(n, net.now)]
        values, failed = _outcome(dag, [execs[n].values for n in live])
        held = (len(live), sum(len(e.values) for e in execs.values()))
        if net.budget_exhausted or not failed or held == last or not live:
            break
        moved = [tid for tid, owner in owners.items() if owner not in live]
        owners.update(_place(dag, moved, live, holders))
        for node in live:
            net.schedule_local(node, net.now + 1, b"", "sync")
        lost = net.lost     # a round that lost a message is no proof of a stall
        net.run_until(max_tick)
        last = held if net.lost == lost else None

    completed = not failed
    return net.report(
        ExecutionReport,
        execution_id=execution_id,
        completed=completed,
        values=values,
        failed_tasks=failed,
        digest=outputs_digest(dag, execs[live[0]].values) if completed else None,
        signers=tuple(live) if completed else (),
        schedule=schedule,
        reassigned={tid: owner for tid, owner in owners.items()
                    if owner != schedule[tid]},
        rejected={node: e.dropped for node, e in execs.items()},
    )


# -- text form -------------------------------------------------------------

def parse_dag(text: str) -> tuple[TaskDAG, dict[str, bytes]]:
    """Parse the line format::

        chunk <id> <hex>
        task <id> <op> <operand> [...]

    where an operand is ``t:<task>``, ``l:<hex>``, or ``c:<chunk>``, and
    ``#`` starts a comment. A line ends at a newline. Raises
    ValueError naming the offending line, or when there is no task. Each
    distinct operand token is parsed once, and its tasks share the `Input`."""
    tasks: dict[str, Task] = {}
    chunks: dict[str, bytes] = {}
    operands: dict[str, Input] = {}     # token -> its Input
    for ln, raw in enumerate(text.split("\n"), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
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
                inputs = []
                for tok in parts[3:]:
                    inp = operands.get(tok)
                    if inp is None:     # a bad token raises before it is stored
                        inp = operands[tok] = _parse_operand(tok)
                    inputs.append(inp)
                tasks[tid] = Task(tid, parts[2], tuple(inputs))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    if not tasks:
        raise ValueError("no tasks")
    for tid, task in tasks.items():
        for ref in task.chunk_reads:
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
