"""Pinned outputs: refactors must leave these byte for byte as they are.

The digests are SHA-256 of each rendered output of the three shipped
scenarios. The DAG case pins where `execute_collaborative` places every
task, before and after a crash, and the trace of that run, which records
the order in which each node starts its tasks.

A trace line names the payload of each message by its digest, so any
change to the wire bytes moves the `trace.log` pins and nothing else. The
skeleton pins hash each trace with that field cut from every `msg:`,
`drop:` and `dead:` line: they hold across such a change, and show that
every event, tick, sender and label stayed where it was.
"""

import hashlib
from pathlib import Path

import pytest

from otcestack.bvm import execute_collaborative, parse_dag, sequential_oracle
from otcestack.keys import KeyStore
from otcestack.runner import run_scenario
from otcestack.scenario import parse_scenario
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "fig4": {
        "chain.dump": "2f136b7cdd2d938915bf662ef88c7fc4d9314c57600f94cd51154ffa8371c222",
        "did.dump": "599b6397d860b33cb75192f9c48963d8f71addc12f073ab8fb62d737d1a173a8",
        "graph.dump": "0dfb2412559d4ed1c0abdd8212bc55328de08b9e3fa5f4ed744a9b022bfd3d7f",
        "metrics.txt": "e4b3a98089de66281fd63aaef01f039d3e602af0c12e841ed7b27d894d8c704e",
        "otce.dump": "b4b1c99feaee166549feef99c145357461038ad6b307307fc6873b419d2c46d1",
        "trace.log": "0af2a46ab3eff372a5f93ad6eb4f288470ccbb7abae3335ac4b05794f05cc377",
    },
    "plan_switch": {
        "chain.dump": "09ac9b360425b8fed634f30f7c9f43d81b9e9a1f5f2769d6906047aa5b03c74c",
        "did.dump": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.dump": "de2876041bdf9b009ba562aecbbe572e1390cbcdcaf32da7f19e9e7dd658c000",
        "metrics.txt": "cacbbe5878b2f1627219e7b96ab1870e867f100561b1b3124c87de357b1b764d",
        "otce.dump": "56f9513045e22298c05f1dab8916f239ff0ed40d7b5328c964d1ed30a51cc102",
        "trace.log": "fb1808c94bc79519c930af010a6d00293bc88d0623320e67e3e2cd0df3b52044",
    },
    "beyond_bound": {
        "chain.dump": "230abdeb2c09d381b5303671cb97f39f6a86d7b7ce2b75a74078645eff04386d",
        "did.dump": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.dump": "0e9451726b5bc3e415ad7706bdeb0724ac666c6ab0fc3a93bb5bbf55c6268ab9",
        "metrics.txt": "50fa30c07aae25b00efa258864411bce45e8e2d57992ce05198ec0ba480b376f",
        "otce.dump": "6909300ee056e4f2828f59fb400dc40477d2d4463163646c0f6bf0eec1d02559",
        "trace.log": "db1839e734b39a98e7a682c16ce028526333b40b3645690c457df1e85dfc9f37",
    },
}


SKELETON = {
    "fig4": "be5b3284ccdb8b2bebbfc921a5a5d0821830a77669eef920f6cf421afa460c33",
    "plan_switch": "12af1738910569f0016ba49042cb4c6ebd0de07f445f7d38320666c67eae8dd9",
    "beyond_bound": "30858e476af280e26d6e2adee566cd8846fb067939f67f1ce8ebf3b1e481e523",
}


def skeleton(lines) -> str:
    """SHA-256 of the trace `lines` with the payload digest cut from every
    line of a delivered, dropped or dead event."""
    kept = []
    for line in lines:
        parts = line.split(" ")
        if len(parts) == 6 and parts[4].startswith(("msg:", "drop:", "dead:")):
            line = " ".join(parts[:5])
        kept.append(line)
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def run_shipped(name):
    path = SCENARIO_DIR / f"{name}.scn"
    return run_scenario(parse_scenario(path.read_text()), base_dir=path.parent)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_outputs_are_pinned(name):
    digests = {out: hashlib.sha256(text.encode()).hexdigest()
               for out, text in run_shipped(name).outputs().items()}
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SKELETON))
def test_shipped_scenario_trace_skeletons_are_pinned(name):
    assert skeleton(run_shipped(name).trace) == SKELETON[name]


# Chunk-reading tasks and chunk-free ones at several depths. k3 lives only
# on w2, which crashes at tick 1 after its start broadcast of k3 went out:
# task e moves to w1 (no live node holds k3, so the smallest id) and runs on
# the signed copy w1 received. b ties w3 against w4 (one chunk each) and
# goes to the smaller id.
CRASH_DAG = """\
chunk k1 0a0b
chunk k2 ff
chunk k3 1234
chunk k4 77
task a add l:01 l:02
task b concat c:k1 c:k2
task c mul t:a l:03
task d hash c:k2 t:a
task e concat c:k3 l:00
task f add t:c t:a
task g hash t:b t:d t:f
task h concat c:k4 c:k1
task i add t:g l:05
task j mul t:h t:f
task k concat t:i t:j
task m add t:c l:09
task n hash t:m t:k
"""
CRASH_HOLDERS = {"w1": ("k4",), "w2": ("k1", "k2", "k3"), "w3": ("k1", "k4"),
                 "w4": ("k2",)}


def test_crash_placement_is_pinned():
    dag, data = parse_dag(CRASH_DAG)
    holders = {node: {cid: data[cid] for cid in cids}
               for node, cids in CRASH_HOLDERS.items()}
    report = execute_collaborative(
        dag, sorted(CRASH_HOLDERS), holders, KeyStore(11),
        net_cfg=NetworkConfig(delay_min=1, delay_max=3, seed=42),
        faults=(FaultSpec("w2", Behavior.CRASH, at_tick=1),),
        execution_id="golden")
    assert report.schedule == {
        "a": "w1", "b": "w2", "e": "w2", "h": "w3", "c": "w2", "d": "w2",
        "f": "w3", "m": "w4", "g": "w1", "j": "w2", "i": "w3", "k": "w4",
        "n": "w1"}
    assert list(report.schedule) == list("abehcdfmgjikn")
    # only the crashed w2's tasks move, in topological order
    assert report.reassigned == {"b": "w3", "e": "w1", "c": "w1", "d": "w4", "j": "w3"}
    assert list(report.reassigned) == list("becdj")
    assert report.failed_tasks == ()
    assert report.values == sequential_oracle(dag, data)
    # The trace records which task each node starts when, and every sync
    # and need, so its digest pins the start order before and after the
    # crash is detected.
    trace = hashlib.sha256("\n".join(report.trace).encode()).hexdigest()
    assert trace == "4963fff3d1c382279e52661bbfb5c79a1f9c4db181885f031e5358056717ac2f"
    assert skeleton(report.trace) == "3f61477edec5fde3309d48480d1f2bdb1f0e33fa84078b15fe4be017084ff8bc"
    assert report.ticks == 26
    assert report.signers == ("w1", "w3", "w4")
