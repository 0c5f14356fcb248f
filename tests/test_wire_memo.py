"""Each distinct wire is verified and decoded once per run, and nothing a
receiver accepts or counts changes because of it."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from otcestack import codec, consensus
from otcestack.bvm import (Task, TaskDAG, TaskExecutor, chunk_input,
                           execute_collaborative, lit_input, task_input)
from otcestack.consensus import (TRANSFORMABLE, Msg, MsgKind, PaxosReplica,
                                 PBFTReplica, config_from_plan, encode_msg,
                                 run_instance)
from otcestack.keys import KeyStore, seal
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import (Behavior, FaultSpec, Network, NetworkConfig,
                              Send, SimEvent)

MEMBERS4 = ("r0", "r1", "r2", "r3")


def deliver(replica, src: str, wire: bytes) -> list:
    return replica.step(SimEvent(1, 1, "msg", src, replica.node, wire, "m"), 1)


def pbft_group(ks: KeyStore, verified: dict):
    cfg = config_from_plan(make_plan(Protocol.PBFT, 4), MEMBERS4, "inst")
    return {m: PBFTReplica(cfg, m, ks, verified) for m in MEMBERS4}


def flip_sig_byte(wire: bytes) -> bytes:
    return wire[:-1] + bytes([wire[-1] ^ 1])


# -- consensus -------------------------------------------------------------

def test_forged_wire_dropped_on_every_delivery_then_valid_copy_accepted():
    ks = KeyStore(5)
    verified: dict = {}
    reps = pbft_group(ks, verified)
    d = codec.sha(b"v")
    good = encode_msg(ks, Msg("inst", MsgKind.PREPREPARE, "r0", view=0, value=b"v",
                              digest=d))
    forged = flip_sig_byte(good)
    receivers = [reps[m] for m in MEMBERS4[1:]]
    for _ in range(2):
        for rep in receivers:
            assert deliver(rep, "r0", forged) == []
    assert [rep.dropped for rep in receivers] == [2, 2, 2]
    assert verified[forged] is None
    for rep in receivers:
        deliver(rep, "r0", good)
        assert rep.proposals[0] == (d, b"v")
    assert [rep.dropped for rep in receivers] == [2, 2, 2]


def test_memoised_message_still_checked_against_each_delivery():
    ks = KeyStore(5)
    verified: dict = {}
    reps = pbft_group(ks, verified)
    d = codec.sha(b"v")
    wire = encode_msg(ks, Msg("inst", MsgKind.PREPREPARE, "r0", view=0, value=b"v",
                              digest=d))
    deliver(reps["r1"], "r0", wire)
    assert reps["r1"].dropped == 0 and verified[wire] is not None
    # the same verified wire relayed by another node is not r0's message
    for rep in (reps["r2"], reps["r3"]):
        deliver(rep, "r1", wire)
        deliver(rep, "r1", wire)
    assert (reps["r2"].dropped, reps["r3"].dropped) == (2, 2)
    other = encode_msg(ks, Msg("elsewhere", MsgKind.PREPREPARE, "r0", view=0,
                               value=b"v", digest=d))
    for rep in (reps["r1"], reps["r2"]):
        deliver(rep, "r0", other)
    assert (reps["r1"].dropped, reps["r2"].dropped) == (1, 3)


def test_replica_without_memo_gets_a_private_one():
    ks = KeyStore(5)
    cfg = config_from_plan(make_plan(Protocol.PAXOS, 3), ("p0", "p1", "p2"), "i")
    a = PaxosReplica(cfg, "p0", ks)
    b = PaxosReplica(cfg, "p1", ks)
    assert a.verified == {} and a.verified is not b.verified


def run_private_memos(protocol, members, value, ks, net_cfg, faults,
                      view_timeout, max_tick=5000):
    """run_instance's replicas on `Network.start`, equivocators set to lie
    from their fault's tick, but every replica keeps its own memo."""
    cfg = config_from_plan(make_plan(protocol, len(members)), members, "inst",
                           view_timeout)
    net = Network(net_cfg)
    cls = PBFTReplica if protocol is Protocol.PBFT else PaxosReplica
    reps = {m: cls(cfg, m, ks) for m in cfg.members}
    for spec in faults:
        if spec.behavior is Behavior.EQUIVOCATE:
            reps[spec.node].lie_from = spec.at_tick
    net.start({m: r.step for m, r in reps.items()}, faults, value,
              MsgKind.REQUEST.value, max_tick)
    return tuple(net.trace), {m: r.dropped for m, r in reps.items()}


@pytest.mark.parametrize("protocol,n", [(Protocol.PBFT, 4), (Protocol.PBFT, 7),
                                        (Protocol.PAXOS, 5)])
def test_shared_memo_matches_private_memos(protocol, n):
    rng = random.Random(n * 31 + len(protocol.value))
    members = tuple(f"r{i}" for i in range(n))
    for _ in range(4):
        seed = rng.randrange(10**6)
        faulty = rng.sample(members, make_plan(protocol, n).f_max)
        behaviors = ([Behavior.EQUIVOCATE, Behavior.CRASH]
                     if protocol is Protocol.PBFT else [Behavior.CRASH])
        faults = tuple(FaultSpec(m, rng.choice(behaviors), at_tick=rng.randrange(0, 20))
                       for m in faulty)
        net_cfg = NetworkConfig(1, rng.randint(1, 20), gst=rng.randint(0, 60),
                                drop_rate=rng.choice([0.0, 0.2]), seed=seed)
        timeout = rng.randint(5, 30)
        res = run_instance(make_plan(protocol, n), members, b"val", KeyStore(7),
                           net_cfg=net_cfg, faults=faults, view_timeout=timeout,
                           instance_id="inst")
        trace, drops = run_private_memos(protocol, members, b"val", KeyStore(7),
                                         net_cfg, faults, timeout)
        assert res.trace == trace
        assert res.replica_drops == drops


def count_verifies_and_deliveries(monkeypatch):
    """(wire -> verify_msg calls, wire -> its last result, delivered wires)."""
    verified = Counter()
    results = {}
    delivered = set()
    original_verify = consensus.verify_msg
    original_step = PBFTReplica.step

    def counting_verify(keystore, wire, *rest):
        verified[wire] += 1
        results[wire] = original_verify(keystore, wire, *rest)
        return results[wire]

    def recording_step(self, event, now):
        if event.kind == "msg":
            delivered.add(event.payload)
        return original_step(self, event, now)

    monkeypatch.setattr(consensus, "verify_msg", counting_verify)
    monkeypatch.setattr(PBFTReplica, "step", recording_step)
    return verified, results, delivered


def test_verify_runs_once_per_distinct_delivered_wire(monkeypatch):
    verified, _, delivered = count_verifies_and_deliveries(monkeypatch)
    members = tuple(f"r{i}" for i in range(7))
    res = run_instance(make_plan(Protocol.PBFT, 7), members, b"val", KeyStore(2),
                       net_cfg=NetworkConfig(1, 9, gst=30, drop_rate=0.1, seed=4),
                       faults=(FaultSpec("r0", Behavior.CRASH, at_tick=3),
                               FaultSpec("r5", Behavior.EQUIVOCATE)),
                       view_timeout=12)
    assert res.agreed
    # votes and view changes reach one leader each; proposals and
    # certificates reach every peer from one wire
    assert res.delivered > len(delivered)
    assert set(verified) == delivered
    assert set(verified.values()) == {1}


def test_equivocator_rewrites_verified_as_separate_wires(monkeypatch):
    verified, results, delivered = count_verifies_and_deliveries(monkeypatch)
    res = run_instance(make_plan(Protocol.PBFT, 4), MEMBERS4, b"val", KeyStore(5),
                       net_cfg=NetworkConfig(1, 1, seed=3),
                       faults=(FaultSpec("r0", Behavior.EQUIVOCATE),))
    assert set(verified) == delivered and set(verified.values()) == {1}
    # the leader's pre-prepare reaches even- and odd-indexed peers as two
    # different wires, each verified on its own and both valid
    preprepares = [m for m in results.values()
                   if m is not None and m.sender == "r0" and m.kind is MsgKind.PREPREPARE]
    assert len(preprepares) == 2
    assert len({m.value for m in preprepares}) == 2
    assert set(res.replica_drops) == set(MEMBERS4)


def test_equivocator_rewrites_each_payload_once(monkeypatch):
    """A broadcast reaches its odd-indexed recipients as one rewritten wire,
    signed once, equal to what rewriting it again gives."""
    ks = KeyStore(1)
    signed = []
    rewrites = []     # (honest message, what odd-indexed recipients are told)
    lies = []         # each wire an odd-indexed recipient got of a proposal or vote
    original_encode = consensus.encode_msg
    original_equivocate = consensus._equivocate
    original_step = PBFTReplica.step

    def counting_encode(keystore, msg):
        signed.append(original_encode(keystore, msg))
        return signed[-1]

    def recording_equivocate(digests, msg):
        rewrites.append((msg, original_equivocate(digests, msg)))
        return rewrites[-1][1]

    def recording_step(self, event, now):
        acts = original_step(self, event, now)
        if self.node == "r00":
            lies.extend(a.payload for a in acts if isinstance(a, Send)
                        and self.cfg.index(a.dst) % 2
                        and MsgKind(a.label) in TRANSFORMABLE)
        return acts

    monkeypatch.setattr(consensus, "encode_msg", counting_encode)
    monkeypatch.setattr(consensus, "_equivocate", recording_equivocate)
    monkeypatch.setattr(PBFTReplica, "step", recording_step)
    members = tuple(f"r{i:02d}" for i in range(31))
    res = run_instance(make_plan(Protocol.PBFT, 31), members, b"val", ks,
                       net_cfg=NetworkConfig(1, 3, seed=1),
                       faults=(FaultSpec("r00", Behavior.EQUIVOCATE),))
    assert res.agreed and res.sent == 240
    assert len(signed) == len(set(signed)) == 130
    assert len(lies) > len(set(lies)) == len(rewrites) > 0
    assert set(lies) == {original_encode(ks, out) for _, out in rewrites}
    digests: dict = {}
    assert [out for _, out in rewrites] == [
        original_equivocate(digests, msg) for msg, _ in rewrites]


# -- bvm -------------------------------------------------------------------

def chain_dag() -> TaskDAG:
    return TaskDAG({"a": Task("a", "add", (lit_input(b"\x01"),)),
                    "b": Task("b", "add", (task_input("a"), lit_input(b"\x02")))})


def test_bvm_memo_is_keyed_on_the_wire():
    ks = KeyStore(3)
    members = ("d1", "d2", "d3", "d4")
    verified: dict = {}
    execs = {m: TaskExecutor("x", chain_dag(), m, members, {"a": "d1", "b": "d2"},
                             {}, ks, verified)
             for m in members}
    wire = seal(ks, "bvm-val", "x", "d1", "value", "a", b"\x01")
    msg = SimEvent(1, 1, "msg", "d1", "d3", wire, "value")
    execs["d3"].step(msg, 1)
    assert execs["d3"].values == {"a": b"\x01"} and execs["d3"].rejected == 0
    # the same wire relayed by d2 is still d1's message, not d2's
    for dst in ("d3", "d4"):
        execs[dst].step(replace(msg, src="d2", dst=dst), 1)
    assert (execs["d3"].rejected, execs["d4"].rejected) == (1, 1)
    assert execs["d4"].values == {}
    assert list(verified) == [wire] and verified[wire][0] == "d1"
    forged = flip_sig_byte(wire)
    for _ in range(2):
        execs["d2"].step(replace(msg, dst="d2", payload=forged), 1)
    assert execs["d2"].rejected == 2 and verified[forged] is None


def test_bvm_report_carries_rejections_per_node():
    members = ("w1", "w2", "w3")
    report = execute_collaborative(chain_dag(), members, {}, KeyStore(3),
                                   net_cfg=NetworkConfig(1, 2, seed=1))
    assert report.completed
    assert report.rejected == {m: 0 for m in members}


def test_bvm_verifies_each_sender_wire_pair_once(monkeypatch):
    calls = Counter()
    original = KeyStore.verify

    def counting(self, identity, message, signature):
        calls[(identity, message + signature)] += 1
        return original(self, identity, message, signature)

    monkeypatch.setattr(KeyStore, "verify", counting)
    tasks = {f"t{i}": Task(f"t{i}", "add", (lit_input(bytes([i])),)) for i in range(6)}
    report = execute_collaborative(TaskDAG(tasks), ("w1", "w2", "w3", "w4"), {},
                                   KeyStore(3), net_cfg=NetworkConfig(1, 2, seed=1))
    assert report.completed and report.delivered == 12
    assert len(calls) == 4 and set(calls.values()) == {1}


def test_bvm_decodes_each_sender_wire_batch_once(monkeypatch):
    decoded = Counter()
    original = codec.unpack

    def counting(data):
        decoded[data] += 1
        return original(data)

    monkeypatch.setattr(codec, "unpack", counting)
    # w1 holds k, which t1, t3, t5 and t7 read, and z, which no task reads;
    # w2 holds j, which t0 reads; t8 to t11 round-robin; every task is a sink
    reads = {"t0": "j", "t1": "k", "t3": "k", "t5": "k", "t7": "k"}
    tasks = {tid: Task(tid, "add", (lit_input(b"\x01"),)
                       + ((chunk_input(reads[tid]),) if tid in reads else ()))
             for tid in list(reads) + ["t8", "t9", "t10", "t11"]}
    report = execute_collaborative(TaskDAG(tasks), ("w1", "w2", "w3", "w4"),
                                   {"w1": {"k": b"\x05", "z": b"\x07"}, "w2": {"j": b"\x06"}},
                                   KeyStore(3), net_cfg=NetworkConfig(1, 2, seed=1))
    assert report.completed
    batches = [d for d in decoded if d.startswith(codec.pack("bvm-val"))]
    # one chunk batch from each holder and one sink batch from each member,
    # each delivered to three peers and decoded once
    assert len(batches) == 2 + 4 and report.delivered == 3 * len(batches)
    assert {decoded[b] for b in batches} == {1}
    # w1's sink batch carries its five sinks after the envelope's four fields
    assert max(len(original(b)) for b in batches) == 4 + 2 * 5


# -- simnet ----------------------------------------------------------------

def test_trace_digest_is_the_payload_digest_for_every_recipient():
    nodes = ("a", "b", "c", "d")
    payloads = (b"broadcast 1", b"broadcast 2")
    net = Network(NetworkConfig(1, 3, seed=2))
    net.register("a", lambda e, now: [Send(d, p, "m") for p in payloads
                                      for d in nodes[1:]] if e.kind == "local" else [])
    for node in nodes[1:]:
        net.register(node, lambda e, now: [])
    net.inject_fault(FaultSpec("d", Behavior.CRASH, at_tick=0))
    net.schedule_local("a", 0, b"", "kick")
    net.run_until(50)
    lines = [ln.split() for ln in net.trace if ln.split()[2] == "a"
             and ln.split()[4].endswith(":m")]
    assert len(lines) == 6
    for payload in payloads:
        got = [ln for ln in lines if ln[5] == codec.short(payload)]
        assert sorted(ln[3] for ln in got) == ["b", "c", "d"]
