"""Pinned outputs: refactors must leave these byte for byte as they are.

The digests are SHA-256 of each rendered output of the three shipped
scenarios. The DAG case pins where `execute_collaborative` places every
task, before and after a crash, since task placement decides the trace.
"""

import hashlib
from pathlib import Path

import pytest

from otcestack.bvm import execute_collaborative, parse_dag
from otcestack.keys import KeyStore
from otcestack.runner import run_scenario
from otcestack.scenario import parse_scenario
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "fig4": {
        "chain.dump": "412370cd1a5c617c5ac5146de8668c444c9cdbd9d3987639e4bed524d8cee919",
        "did.dump": "599b6397d860b33cb75192f9c48963d8f71addc12f073ab8fb62d737d1a173a8",
        "graph.dump": "0dfb2412559d4ed1c0abdd8212bc55328de08b9e3fa5f4ed744a9b022bfd3d7f",
        "metrics.txt": "76ddcd39d43cb9bce938a6237d347645d843d69647c31cbf50ad0a7415f3d311",
        "otce.dump": "a97b9a30eb2283ebd6f624b40db3705c693e77562f17b8af7bd8413cf172db04",
        "trace.log": "0044a125784a565d585f62b946e10a727437c62741aaad598bdb71d31ed10a9f",
    },
    "plan_switch": {
        "chain.dump": "0e38f699cd476b79c2ca2c914e4993392729ce48e865b1d753ad68bd1796a79a",
        "did.dump": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.dump": "de2876041bdf9b009ba562aecbbe572e1390cbcdcaf32da7f19e9e7dd658c000",
        "metrics.txt": "4f423ad499b6477561cd8290ae2a1f8cedc9f0c92845e4d49cb1c6113c0f922d",
        "otce.dump": "7cc0625322942fdf596304a2d538ff04ee0465334777452b8b767e31fc7fe57f",
        "trace.log": "f0352e531fa94201f25fe9c36f1a52864a57792d4ae0a893ac3bfb3bc0c33d1b",
    },
    "beyond_bound": {
        "chain.dump": "3132a5663426da390cfaf837e576f7c499de2a8e15877a7efd95816006cae64e",
        "did.dump": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.dump": "0e9451726b5bc3e415ad7706bdeb0724ac666c6ab0fc3a93bb5bbf55c6268ab9",
        "metrics.txt": "88cbc8febb37a9d2f6056627468b3ea04d4d8aba2bb2fedb87685629c38eacf2",
        "otce.dump": "5430f91b28b67fec4e1ae7fde9a7915fa4475d692529fac4283c2e39927fdc34",
        "trace.log": "ad9faa68423eea04ea0ac26d09fa16826726b0438409000031f619d95bc500c2",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_outputs_are_pinned(name):
    path = SCENARIO_DIR / f"{name}.scn"
    result = run_scenario(parse_scenario(path.read_text()), base_dir=path.parent)
    digests = {out: hashlib.sha256(text.encode()).hexdigest()
               for out, text in result.outputs().items()}
    assert digests == GOLDEN[name]


# Chunk-reading tasks and chunk-free ones at several depths. k3 lives only
# on w2, so once w2 crashes task e cannot be placed; b ties w3 against w4
# (one chunk each) and goes to the smaller id.
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
    assert report.reassigned == {
        "b": "w3", "c": "w1", "d": "w4", "f": "w3", "m": "w4", "g": "w1",
        "j": "w3", "i": "w4", "k": "w1", "n": "w3"}
    assert list(report.reassigned) == list("bcdfmgjikn")
    assert report.failed_tasks == ("e",)
