"""What every consensus instance of a run decided, pinned apart from the
wire bytes.

The trace pins of `test_golden` name each payload by its digest, so they
move with any change to what a message carries. This pin hashes only the
outcome of each instance: every replica's decision (value, tick and view),
the sent, delivered, dropped and in-flight counts, the ticks, each
replica's drops, the stalled replicas, the violations and the beyond-bound
flag. It covers the three shipped scenarios and the benchmark's
`consensus_wide` workload at seeds 1-3, whose generator is loaded by path
from `perfbench/workloads.py`. A change that moves only the wire bytes
leaves it as it is.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from otcestack.runner import run_scenario
from otcestack.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

OUTCOMES = {
    "fig4": "c3251dc0742f35dd663fac856375494d5ae22f5e6437b13869745cd52ad42716",
    "plan_switch": "b9fed6199112cb913a5e721647439f2a16a1f660ce1fcee1704f274cbb69941f",
    "beyond_bound": "91ce2ead26444930129c93b16bafe03706cd3dedf9834940d24906bd2503eef7",
    "consensus_wide/1": "a27ba1c94caef882f51d36d2dc63252377fdab59f3c5c77417226c3ab9c0fe25",
    "consensus_wide/2": "75f8d93b1c831b950cbf32459b00520c52f33fdb01d6de72bbfc97d1cde4021a",
    "consensus_wide/3": "65f75a855d38d2c6aa3910bd7cd6dcb887bf64c8df1cb20a318d0dbda6cf31e9",
}


def load_workloads():
    """The generators' module; registered before it runs, since its
    dataclass looks its own module up."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_text(case: str) -> str:
    if "/" not in case:
        return (SCENARIO_DIR / f"{case}.scn").read_text()
    name, seed = case.split("/")
    return load_workloads().GENERATORS[name](int(seed)).scenario


def outcome(result) -> tuple:
    decisions = tuple((m, d.value.hex(), d.decided_at, d.view)
                      for m, d in sorted(result.decisions.items()))
    return (result.instance_id, decisions, result.sent, result.delivered,
            result.dropped, result.in_flight, result.ticks,
            tuple(sorted(result.replica_drops.items())), result.stalled,
            result.violations, result.beyond_bound)


@pytest.mark.parametrize("case", sorted(OUTCOMES))
def test_consensus_outcomes_are_pinned(case):
    run = run_scenario(parse_scenario(scenario_text(case)), base_dir=SCENARIO_DIR)
    outcomes = [outcome(r) for r in run.consensus_results]
    assert outcomes
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == OUTCOMES[case]
