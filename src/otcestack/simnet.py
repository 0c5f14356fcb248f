"""Deterministic discrete-event message network with fault injection.

One Network instance is one logical execution: events fire in strict
(deliver_at, seq) order, all randomness flows from the config seed, and the
processed sequence is recorded as a line-oriented trace. Identical
(seed, config, faults) must reproduce the trace byte for byte.

Faulty-sender behaviors are applied on the send path, so protocol handlers
always run their honest logic: crash silences a node from its crash tick,
drop-all suppresses its outbound messages, delay-max stretches them to the
bound (landing after the stabilization tick when one is set), and
equivocate rewrites value-bearing payloads per recipient through a
protocol-supplied transform.

Trace lines name a payload by its short digest. A broadcast puts the same
payload on many lines, so each Network computes the digest once per
distinct payload.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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
    # equivocate only: (payload, dst, dst_index) -> payload
    transform: Callable[[bytes, str, int], bytes] | None = None


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


@dataclass(frozen=True)
class SimEvent:
    deliver_at: int
    seq: int
    kind: str          # "msg" | "timer" | "local"
    src: str
    dst: str
    payload: bytes
    label: str


# handler actions
@dataclass(frozen=True)
class Send:
    dst: str
    payload: bytes
    label: str = "msg"


@dataclass(frozen=True)
class SetTimer:
    delay: int
    tag: str


@dataclass(frozen=True)
class Record:
    label: str
    data: str = ""


Handler = Callable[[SimEvent, int], list]


class Network:
    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._seq = 0
        self._handlers: dict[str, Handler] = {}
        self._order: dict[str, int] = {}
        self._faults: dict[str, FaultSpec] = {}
        self.trace: list[str] = []
        self._shorts: dict[bytes, str] = {}
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.now = 0
        self.quiescent_at: int | None = None
        self.budget_exhausted = False

    # -- wiring ------------------------------------------------------------

    def register(self, node: str, handler: Handler) -> None:
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler
        self._order[node] = len(self._order)

    def inject_fault(self, spec: FaultSpec) -> None:
        if spec.node not in self._handlers:
            raise ValueError(f"fault for unknown node {spec.node}")
        if spec.node in self._faults:
            raise ValueError(f"conflicting fault specs for {spec.node}")
        self._faults[spec.node] = spec

    def _fault(self, node: str, tick: int) -> FaultSpec | None:
        spec = self._faults.get(node)
        if spec is not None and tick >= spec.at_tick:
            return spec
        return None

    def crashed(self, node: str, tick: int) -> bool:
        spec = self._fault(node, tick)
        return spec is not None and spec.behavior is Behavior.CRASH

    def _short(self, payload: bytes) -> str:
        digest = self._shorts.get(payload)
        if digest is None:
            digest = self._shorts[payload] = codec.short(payload)
        return digest

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, event: SimEvent) -> None:
        heapq.heappush(self._heap, (event.deliver_at, event.seq, event))

    # -- event sources -----------------------------------------------------

    def schedule_local(self, node: str, at: int, payload: bytes,
                       label: str = "local") -> None:
        if node not in self._handlers:
            raise ValueError(f"unknown node {node}")
        self._push(SimEvent(at, self._next_seq(), "local", node, node, payload, label))

    def send(self, src: str, dst: str, payload: bytes, label: str = "msg") -> None:
        if src not in self._handlers or dst not in self._handlers:
            raise ValueError("send between unknown nodes")
        tick = self.now
        self.sent += 1
        fault = self._fault(src, tick)
        if self.crashed(src, tick) or (fault and fault.behavior is Behavior.DROP_ALL):
            self._drop(tick, src, dst, label, payload)
            return
        if (fault and fault.behavior is Behavior.EQUIVOCATE
                and fault.transform is not None):
            payload = fault.transform(payload, dst, self._order[dst])
        deliver_at = self._deliver_tick(tick, fault)
        if deliver_at is None:
            self._drop(tick, src, dst, label, payload)
            return
        self._push(SimEvent(deliver_at, self._next_seq(), "msg", src, dst,
                            payload, label))

    def _deliver_tick(self, tick: int, fault: FaultSpec | None) -> int | None:
        cfg = self.cfg
        if fault is not None and fault.behavior is Behavior.DELAY_MAX:
            base = tick if cfg.gst is None else max(tick, cfg.gst)
            return base + cfg.delay_max
        before_gst = cfg.gst is None or tick < cfg.gst
        if cfg.drop_rate > 0.0 and before_gst and self.rng.random() < cfg.drop_rate:
            return None
        return tick + self.rng.randint(cfg.delay_min, cfg.delay_max)

    def _drop(self, tick: int, src: str, dst: str, label: str, payload: bytes) -> None:
        self.dropped += 1
        self.trace.append(
            f"{tick} {self._next_seq()} {src} {dst} drop:{label} {self._short(payload)}")

    # -- the loop ----------------------------------------------------------

    def run_until(self, max_tick: int) -> None:
        self.quiescent_at = None
        self.budget_exhausted = False
        while self._heap:
            deliver_at, _, event = self._heap[0]
            if deliver_at > max_tick:
                self.budget_exhausted = True
                self.now = max_tick
                self.trace.append(
                    f"{max_tick} {self._next_seq()} - - budget-exhausted "
                    f"inflight={self.in_flight()}")
                return
            heapq.heappop(self._heap)
            self.now = event.deliver_at
            if self.crashed(event.dst, event.deliver_at):
                if event.kind == "msg":
                    self.dropped += 1
                self.trace.append(
                    f"{event.deliver_at} {event.seq} {event.src} {event.dst} "
                    f"dead:{event.label} {self._short(event.payload)}")
                continue
            if event.kind == "msg":
                self.delivered += 1
            self.trace.append(
                f"{event.deliver_at} {event.seq} {event.src} {event.dst} "
                f"{event.kind}:{event.label} {self._short(event.payload)}")
            actions = self._handlers[event.dst](event, event.deliver_at) or []
            for action in actions:
                if isinstance(action, Send):
                    self.send(event.dst, action.dst, action.payload, action.label)
                elif isinstance(action, SetTimer):
                    self._push(SimEvent(self.now + action.delay, self._next_seq(),
                                        "timer", event.dst, event.dst, b"",
                                        action.tag))
                elif isinstance(action, Record):
                    self.trace.append(
                        f"{self.now} {self._next_seq()} {event.dst} {event.dst} "
                        f"record:{action.label} {action.data}")
                else:
                    raise TypeError(f"unknown action {action!r}")
        self.quiescent_at = self.now

    def in_flight(self) -> int:
        return sum(1 for _, _, e in self._heap if e.kind == "msg")

    def conservation_ok(self) -> bool:
        return self.sent == self.delivered + self.dropped + self.in_flight()
