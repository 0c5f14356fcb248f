"""The accept rules of `keys.Peer.step`, the one receiver of the consensus
replica under either plan and of the DAG executor: every refused delivery
is one drop and no action, whichever of them gets it, and each distinct
wire is opened once however often it arrives."""

import pytest

from otcestack import codec
from otcestack.bvm import Task, TaskDAG, TaskExecutor, lit_input, task_input
from otcestack.consensus import PaxosReplica, PBFTReplica, config_from_plan
from otcestack.keys import KeyStore, seal
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import SimEvent

KS = KeyStore(5)
MEMBERS = ("r0", "r1", "r2", "r3")
SCOPE = "inst"     # the instance id of the replicas, the execution id of the executor

# a message r1 takes from r0, per engine: (kind, body...)
BODIES = {
    "pbft": ("preprepare", 0, b"v", codec.sha(b"v"), -1),
    "paxos": ("preprepare", 0, b"v", codec.sha(b"v"), -1),
    "executor": ("value", "a", b"\x01"),
}
TAGS = {"pbft": "cons", "paxos": "cons", "executor": "bvm-val"}
CLASSES = {"pbft": PBFTReplica, "paxos": PaxosReplica, "executor": TaskExecutor}


def make_peer(engine: str, verified: dict):
    if engine == "executor":
        dag = TaskDAG({"a": Task("a", "add", (lit_input(b"\x01"),)),
                       "b": Task("b", "add", (task_input("a"),))})
        return TaskExecutor(SCOPE, dag, "r1", MEMBERS, {"a": "r0", "b": "r1"}, {},
                            KS, verified)
    protocol = Protocol.PBFT if engine == "pbft" else Protocol.PAXOS
    cfg = config_from_plan(make_plan(protocol, len(MEMBERS)), MEMBERS, SCOPE)
    if engine == "pbft":
        return PBFTReplica(cfg, "r1", KS, verified)
    return PaxosReplica(cfg, "r1", KS, verified=verified)


def deliver(peer, src: str, wire: bytes) -> list:
    return peer.step(SimEvent(1, 1, "msg", src, peer.node, wire, "m"), 1)


@pytest.mark.parametrize("engine", ["pbft", "paxos", "executor"])
def test_each_refused_delivery_is_one_drop_and_each_wire_opens_once(engine, monkeypatch):
    tag = TAGS[engine]
    other_engine = "executor" if tag == "cons" else "pbft"
    good = seal(KS, tag, SCOPE, "r0", *BODIES[engine])
    refused = [
        ("r0", good[:-1] + bytes([good[-1] ^ 1])),                # a flipped signature byte
        ("r2", good),                                             # relayed by a non-signer
        ("r0", seal(KS, tag, "elsewhere", "r0", *BODIES[engine])),    # another scope
        ("r0", seal(KS, TAGS[other_engine], SCOPE, "r0", *BODIES[other_engine])),
        ("zz", seal(KS, tag, SCOPE, "zz", *BODIES[engine])),      # a non-member signer
    ]
    opened = []
    original = CLASSES[engine]._open

    def counting(self, wire):
        opened.append(wire)
        return original(self, wire)

    monkeypatch.setattr(CLASSES[engine], "_open", counting)
    verified: dict = {}
    peer = make_peer(engine, verified)
    for rnd in (1, 2):
        for i, (src, wire) in enumerate(refused, start=1):
            assert deliver(peer, src, wire) == []
            assert peer.dropped == 5 * (rnd - 1) + i
    # five distinct wires, each opened on its first delivery only
    assert opened == [wire for _, wire in refused]
    assert list(verified) == opened
    # only the relayed wire opens: its refusal is the signer check's
    assert [verified[wire] is None for wire in opened] == [True, False, True, True, True]
    if engine == "executor":
        assert peer.rejected == peer.dropped
    # the relayed wire from its own signer is taken, from the memo
    assert deliver(peer, "r0", good) != []
    assert peer.dropped == 10 and len(opened) == len(refused)
