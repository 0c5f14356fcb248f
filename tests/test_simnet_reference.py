"""The network against a reference copy of its earlier form: a fault lookup
through `_fault` and `crashed` at each use, and the delay and drop choice in
`_deliver_tick`. On seeded random configs, faults and flooding handlers,
both give the same trace, counters, clock and budget flag."""

import heapq
import random

import pytest

from otcestack import codec
from otcestack.simnet import (Behavior, FaultSpec, Network, NetworkConfig,
                              Record, Send, SetTimer, SimEvent)

# -- reference: one helper call per fault question ----------------------------


class RefNetwork:
    def __init__(self, cfg):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self._heap = []
        self._seq = 0
        self._handlers = {}
        self._faults = {}
        self.trace = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.now = 0
        self.budget_exhausted = False

    def register(self, node, handler):
        self._handlers[node] = handler

    def inject_fault(self, spec):
        self._faults[spec.node] = spec

    def _fault(self, node, tick):
        spec = self._faults.get(node)
        if spec is not None and tick >= spec.at_tick:
            return spec
        return None

    def crashed(self, node, tick):
        spec = self._fault(node, tick)
        return spec is not None and spec.behavior is Behavior.CRASH

    def _next_seq(self):
        self._seq += 1
        return self._seq

    def _push(self, event):
        heapq.heappush(self._heap, (event.deliver_at, event.seq, event))

    def schedule_local(self, node, at, payload, label="local"):
        self._push(SimEvent(at, self._next_seq(), "local", node, node, payload, label))

    def send(self, src, dst, payload, label="msg"):
        tick = self.now
        self.sent += 1
        fault = self._fault(src, tick)
        if self.crashed(src, tick) or (fault and fault.behavior is Behavior.DROP_ALL):
            self._drop(tick, src, dst, label, payload)
            return
        deliver_at = self._deliver_tick(tick, fault)
        if deliver_at is None:
            self._drop(tick, src, dst, label, payload)
            return
        self._push(SimEvent(deliver_at, self._next_seq(), "msg", src, dst,
                            payload, label))

    def _deliver_tick(self, tick, fault):
        cfg = self.cfg
        if fault is not None and fault.behavior is Behavior.DELAY_MAX:
            base = tick if cfg.gst is None else max(tick, cfg.gst)
            return base + cfg.delay_max
        before_gst = cfg.gst is None or tick < cfg.gst
        if cfg.drop_rate > 0.0 and before_gst and self.rng.random() < cfg.drop_rate:
            return None
        return tick + self.rng.randint(cfg.delay_min, cfg.delay_max)

    def _drop(self, tick, src, dst, label, payload):
        self.dropped += 1
        self.trace.append(
            f"{tick} {self._next_seq()} {src} {dst} drop:{label} {codec.short(payload)}")

    def run_until(self, max_tick):
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
                    f"dead:{event.label} {codec.short(event.payload)}")
                continue
            if event.kind == "msg":
                self.delivered += 1
            self.trace.append(
                f"{event.deliver_at} {event.seq} {event.src} {event.dst} "
                f"{event.kind}:{event.label} {codec.short(event.payload)}")
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

    def in_flight(self):
        return sum(1 for _, _, e in self._heap if e.kind == "msg")


# -- seeded random inputs -----------------------------------------------------


def flooder(nodes, node):
    """A node that floods on a poke, pings a peer on a timer, forwards a
    message while its hop byte lasts, and now and then sets a timer or
    records a line. Every choice is a function of the event, so two
    networks that hand it the same events get the same actions back."""
    peers = [n for n in nodes if n != node]

    def handler(event, now):
        if event.kind == "local":
            return [Send(p, bytes([3, now % 251]), "flood") for p in peers]
        if event.kind == "timer":
            return [Send(peers[now % len(peers)], bytes([1]), "ping")]
        hops = event.payload[0] if event.payload else 0
        roll = (now * 7 + event.seq) % 5
        if hops == 0 or roll == 0:
            return None if roll % 2 else []
        acts = [Send(peers[(event.seq + i) % len(peers)],
                     bytes([hops - 1]) + event.payload[1:], "fwd")
                for i in range(1 + roll % 2)]
        if roll == 3:
            acts.append(SetTimer(1 + event.seq % 4, f"t:{event.seq}"))
        if roll == 4:
            acts.append(Record("seen", f"{node}:{hops}"))
        return acts
    return handler


def build(net_cls, seed):
    rng = random.Random(seed)
    delay_min = rng.randint(0, 3)
    cfg = NetworkConfig(delay_min=delay_min, delay_max=rng.randint(delay_min, 9),
                        drop_rate=rng.choice([0.0, 0.0, 0.15, 0.5, 1.0]),
                        gst=rng.choice([None, None, 0, rng.randint(5, 40)]),
                        seed=rng.randrange(10**6))
    net = net_cls(cfg)
    nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
    for node in nodes:
        net.register(node, flooder(nodes, node))
    # each fault starts after the first sends, so a sender is honest first
    for node in rng.sample(nodes, rng.randint(0, min(3, len(nodes)))):
        behavior = rng.choice(list(Behavior))
        rng.random()    # unused; drawn so each seed's later draws stay as they were
        net.inject_fault(FaultSpec(node, behavior, at_tick=rng.randint(1, 30)))
    for _ in range(rng.randint(1, 8)):
        net.schedule_local(rng.choice(nodes), rng.randint(0, 40), b"", "poke")
    return net, [rng.randint(5, 60), rng.randint(60, 400)]


def state(net):
    return (net.trace, net.sent, net.delivered, net.dropped, net.in_flight(),
            net.now, net.budget_exhausted)


@pytest.mark.parametrize("block", range(10))
def test_network_matches_the_reference(block):
    for seed in range(block * 30, block * 30 + 30):
        net, budgets = build(Network, seed)
        ref, _ = build(RefNetwork, seed)
        for max_tick in budgets:
            net.run_until(max_tick)
            ref.run_until(max_tick)
            assert state(net) == state(ref), f"seed {seed}, budget {max_tick}"


def test_the_random_inputs_reach_every_case():
    """The generator above exercises what the comparison is for."""
    seen = set()
    for seed in range(300):
        net, budgets = build(Network, seed)
        for max_tick in budgets:
            net.run_until(max_tick)
            seen.add(("budget", net.budget_exhausted))
        cfg = net.cfg
        seen.add(("gst", cfg.gst is not None))
        seen.add(("lossy", cfg.drop_rate > 0.0))
        for spec in net._faults.values():
            seen.add(spec.behavior)
        for line in net.trace:
            kind = line.split()[4].split(":")[0]
            seen.add(kind)
    assert {"msg", "local", "timer", "record", "drop", "dead",
            "budget-exhausted"} <= seen
    assert {("budget", True), ("budget", False), ("gst", True), ("gst", False),
            ("lossy", True), ("lossy", False)} <= seen
    assert set(Behavior) <= seen
