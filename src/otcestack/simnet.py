"""Deterministic discrete-event message network with fault injection.

One Network instance is one logical execution: events fire in strict
(deliver_at, seq) order, all randomness flows from the config seed, and the
processed sequence is recorded as a line-oriented trace. Identical
(seed, config, faults) must reproduce the trace byte for byte.

The send path holds the faults that only silence or slow a node: crash
silences it from its crash tick, drop-all suppresses its outbound
messages, and delay-max stretches them to the bound (landing after the
stabilization tick when one is set). A lie is the sender's own code: the
network carries an `equivocate` node's payloads as it sends them.

Each message costs one pass: `send` looks up the sender's fault once and
`run_until` looks up the receiver's once per delivery. The network builds
each event once and hands it to one handler, and a handler's actions are
read once, so these per-message records are slotted rather than frozen:
nothing shares them.

Trace lines name a payload by its short digest. A broadcast puts the same
payload on many lines, so a Network keeps one record per payload that has
a queued copy, a message or a local event: how many copies are queued, and
the digest, computed once when the first copy is queued. A drop on the
send path reads the digest from the record when there is one. A timer
carries no payload, so its digest is a constant. The network also owns
the wire memo that its nodes share (see `keys`): a node stores there what
a delivered wire opened to. When the last queued copy of a payload has
been handled, delivered or shown `dead:` at a crashed node, and the
handler queued no new copy of it, the network drops the payload's record
and its memo entry. So the records and the memo grow with the messages in
flight, not with every message sent. The memo is a cache: a wire sent
again after that is opened again, to the same result.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, TypeVar

from . import codec


class Behavior(str, Enum):
    CRASH = "crash"
    DROP_ALL = "drop-all"
    EQUIVOCATE = "equivocate"
    DELAY_MAX = "delay-max"


@dataclass(frozen=True)
class FaultSpec:
    node: str
    behavior: Behavior
    at_tick: int = 0


@dataclass(frozen=True)
class NetworkConfig:
    delay_min: int = 1
    delay_max: int = 1
    gst: int | None = None
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.delay_min <= self.delay_max:
            raise ValueError("need 0 <= delay_min <= delay_max")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if self.gst is not None and self.gst < 0:
            raise ValueError("gst must be non-negative")


@dataclass(slots=True)
class SimEvent:
    deliver_at: int
    seq: int
    kind: str          # "msg" | "timer" | "local"
    src: str
    dst: str
    payload: bytes
    label: str


# handler actions
@dataclass(slots=True)
class Send:
    dst: str
    payload: bytes
    label: str = "msg"


@dataclass(slots=True)
class SetTimer:
    delay: int
    tag: str


@dataclass(slots=True)
class Record:
    label: str
    data: str = ""


Handler = Callable[[SimEvent, int], list]

# the trace digest of every timer, whose payload is always empty
_TIMER_SHORT = codec.short(b"")


@dataclass
class NetReport:
    """What a finished network run reports. `ticks` is the tick the run
    reached: where its last event fired, or the budget when it ran out.
    The engines' results extend this record; `Network.report` fills it."""
    sent: int
    delivered: int
    dropped: int
    in_flight: int
    ticks: int
    budget_exhausted: bool
    trace: tuple[str, ...]


R = TypeVar("R", bound=NetReport)


class Network:
    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._seq = 0
        self._handlers: dict[str, Handler] = {}
        self._faults: dict[str, FaultSpec] = {}
        self.trace: list[str] = []
        # payload -> [copies queued, trace digest], while a copy is queued
        self._queued: dict[bytes, list] = {}
        self.memo: dict[bytes, object] = {}     # wire -> what it opened to
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.lost = 0           # drops drawn from drop_rate, not from faults
        self.now = 0
        self.budget_exhausted = False

    # -- wiring ------------------------------------------------------------

    def register(self, node: str, handler: Handler) -> None:
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler

    def start(self, handlers: dict[str, Handler], faults, payload: bytes,
              label: str, max_tick: int) -> None:
        """Register each node's handler, in order, inject `faults`, give
        every node a local `label` event with `payload` at tick 0, and run
        until `max_tick`."""
        for node, handler in handlers.items():
            self.register(node, handler)
        for spec in faults:
            self.inject_fault(spec)
        for node in handlers:
            self.schedule_local(node, 0, payload, label)
        self.run_until(max_tick)

    def inject_fault(self, spec: FaultSpec) -> None:
        if spec.node not in self._handlers:
            raise ValueError(f"fault for unknown node {spec.node}")
        if spec.node in self._faults:
            raise ValueError(f"conflicting fault specs for {spec.node}")
        self._faults[spec.node] = spec

    def crashed(self, node: str, tick: int) -> bool:
        spec = self._faults.get(node)
        return (spec is not None and spec.behavior is Behavior.CRASH
                and tick >= spec.at_tick)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, event: SimEvent) -> None:
        heapq.heappush(self._heap, (event.deliver_at, event.seq, event))

    def _queue(self, event: SimEvent) -> None:
        """Push a message or local event and count its payload's copy."""
        record = self._queued.get(event.payload)
        if record is None:
            self._queued[event.payload] = [1, codec.short(event.payload)]
        else:
            record[0] += 1
        heapq.heappush(self._heap, (event.deliver_at, event.seq, event))

    # -- event sources -----------------------------------------------------

    def schedule_local(self, node: str, at: int, payload: bytes,
                       label: str = "local") -> None:
        if node not in self._handlers:
            raise ValueError(f"unknown node {node}")
        self._queue(SimEvent(at, self._next_seq(), "local", node, node, payload, label))

    def send(self, src: str, dst: str, payload: bytes, label: str = "msg") -> None:
        if src not in self._handlers or dst not in self._handlers:
            raise ValueError("send between unknown nodes")
        tick = self.now
        self.sent += 1
        cfg = self.cfg
        deliver_at = None
        fault = self._faults.get(src)
        if fault is not None and tick >= fault.at_tick:
            behavior = fault.behavior
            if behavior is Behavior.CRASH or behavior is Behavior.DROP_ALL:
                self._drop(tick, src, dst, label, payload)
                return
            if behavior is Behavior.DELAY_MAX:
                base = tick if cfg.gst is None else max(tick, cfg.gst)
                deliver_at = base + cfg.delay_max
        if deliver_at is None:
            if (cfg.drop_rate > 0.0 and (cfg.gst is None or tick < cfg.gst)
                    and self.rng.random() < cfg.drop_rate):
                self.lost += 1
                self._drop(tick, src, dst, label, payload)
                return
            # randrange is what randint calls, so the random stream is the same
            deliver_at = tick + self.rng.randrange(cfg.delay_min, cfg.delay_max + 1)
        self._queue(SimEvent(deliver_at, self._next_seq(), "msg", src, dst,
                             payload, label))

    def _drop(self, tick: int, src: str, dst: str, label: str, payload: bytes) -> None:
        self.dropped += 1
        record = self._queued.get(payload)
        short = codec.short(payload) if record is None else record[1]
        self.trace.append(f"{tick} {self._next_seq()} {src} {dst} drop:{label} {short}")

    # -- the loop ----------------------------------------------------------

    def run_until(self, max_tick: int) -> None:
        self.budget_exhausted = False
        heap, trace, faults = self._heap, self.trace, self._faults
        queued, memo = self._queued, self.memo
        while heap:
            deliver_at, seq, event = heap[0]
            if deliver_at > max_tick:
                self.budget_exhausted = True
                self.now = max_tick
                trace.append(
                    f"{max_tick} {self._next_seq()} - - budget-exhausted "
                    f"inflight={self.in_flight()}")
                return
            heapq.heappop(heap)
            self.now = deliver_at
            dst, kind, payload = event.dst, event.kind, event.payload
            if kind == "timer":
                record, short = None, _TIMER_SHORT
            else:               # this copy is handled below
                record = queued[payload]
                record[0] -= 1
                short = record[1]
            fault = faults.get(dst)
            if (fault is not None and fault.behavior is Behavior.CRASH
                    and deliver_at >= fault.at_tick):
                if kind == "msg":
                    self.dropped += 1
                trace.append(
                    f"{deliver_at} {seq} {event.src} {dst} dead:{event.label} {short}")
            else:
                if kind == "msg":
                    self.delivered += 1
                trace.append(
                    f"{deliver_at} {seq} {event.src} {dst} {kind}:{event.label} {short}")
                for action in self._handlers[dst](event, deliver_at) or ():
                    if isinstance(action, Send):
                        self.send(dst, action.dst, action.payload, action.label)
                    elif isinstance(action, SetTimer):
                        self._push(SimEvent(deliver_at + action.delay, self._next_seq(),
                                            "timer", dst, dst, b"", action.tag))
                    elif isinstance(action, Record):
                        trace.append(
                            f"{deliver_at} {self._next_seq()} {dst} {dst} "
                            f"record:{action.label} {action.data}")
                    else:
                        raise TypeError(f"unknown action {action!r}")
            # the last copy is handled, and the handler queued no new one
            if record is not None and not record[0]:
                del queued[payload]
                memo.pop(payload, None)

    def in_flight(self) -> int:
        return sum(1 for _, _, e in self._heap if e.kind == "msg")

    def conservation_ok(self) -> bool:
        return self.sent == self.delivered + self.dropped + self.in_flight()

    def report(self, record: type[R], **fields) -> R:
        """A `record` (`NetReport` or a subclass) of the run so far, with
        the subclass's own `fields`."""
        return record(sent=self.sent, delivered=self.delivered,
                      dropped=self.dropped, in_flight=self.in_flight(),
                      ticks=self.now, budget_exhausted=self.budget_exhausted,
                      trace=tuple(self.trace), **fields)
