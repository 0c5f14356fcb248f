"""Self-test of the benchmark's input generators.

The generator must be deterministic for a seed, reach each workload's
stated size, and keep every group's faults within its plan's bound, with
equivocators only in byzantine-plan groups. The scenario text is read back
here line by line, independently of the package's parser.
"""

from collections import Counter

import pytest

import workloads

SEEDS = (0, 1, 7, 2024)


def directives(text: str):
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield parts


def groups_and_faults(text: str):
    """[(alias, members, byzantine)] from create-otce lines, and node -> behavior."""
    tau = None
    edge_trust = {}
    faults = {}
    groups = []
    for parts in directives(text):
        if parts[0] == "mapping":
            tau = float(parts[1])
        elif parts[0] == "edge":
            edge_trust[parts[1]] = float(parts[2])
        elif parts[0] == "fault":
            faults[parts[1]] = parts[2]
        elif parts[:2] == ["do", "create-otce"]:
            kw = dict(tok.split("=", 1) for tok in parts[3:])
            trust = edge_trust[kw["trust"].removeprefix("edge:")]
            groups.append((parts[2], kw["group"].split(","), trust < tau))
    return groups, faults


def action_verbs(text: str) -> Counter:
    return Counter(parts[1] for parts in directives(text) if parts[0] == "do")


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    a, b, other = gen(5), gen(5), gen(6)
    assert (a.scenario, a.dag) == (b.scenario, b.dag)
    assert (a.scenario, a.dag) != (other.scenario, other.dag)


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_churn_size(seed):
    w = workloads.ledger_churn(seed)
    verbs = action_verbs(w.scenario)
    nodes = [p for p in directives(w.scenario) if p[0] == "node"]
    assert len(nodes) == 24
    assert verbs["seal"] == 400
    assert verbs["register-did"] == 24
    assert 10_000 <= sum(verbs.values()) <= 11_000
    txs = sum(verbs[v] for v in ("register-did", "create-otce", "suspend", "resume",
                                 "terminate", "update-plan"))
    assert 8_200 <= txs <= 8_800
    mix = 400 * 25
    assert abs(verbs["create-otce"] / mix - 0.45) < 0.04
    assert abs((verbs["suspend"] + verbs["resume"]) / mix - 0.20) < 0.03
    assert abs(verbs["observe"] / mix - 0.15) < 0.03
    assert not {"consensus", "run-dag"} & set(verbs)
    deltas = [int(p[4].split("=")[1]) for p in directives(w.scenario)
              if p[:2] == ["do", "create-otce"]]
    assert min(deltas) >= 50 and max(deltas) <= 2000


@pytest.mark.parametrize("seed", SEEDS)
def test_consensus_wide_size(seed):
    w = workloads.consensus_wide(seed)
    groups, faults = groups_and_faults(w.scenario)
    shapes = sorted((len(members), byz) for _, members, byz in groups)
    assert shapes == sorted((n, byz) for n in (4, 16, 31, 64) for byz in (False, True))
    assert action_verbs(w.scenario)["consensus"] == 24
    assert "equivocate" in faults.values()
    # every group's view-0 leader (its smallest member) crashes
    for _, members, _ in groups:
        assert faults.get(min(members)) == "crash"


def test_dag_collab_size():
    for seed in SEEDS:
        w = workloads.dag_collab(seed)
        tasks = [p for p in directives(w.dag) if p[0] == "task"]
        assert len(tasks) == 3000
        assert {p[2] for p in tasks} == {"add", "mul", "concat", "hash"}
        assert len([p for p in directives(w.dag) if p[0] == "chunk"]) == 64
        groups, faults = groups_and_faults(w.scenario)
        assert [len(members) for _, members, _ in groups] == [8]
        assert list(faults.values()) == ["crash"]
        acts = [p[1] for p in directives(w.scenario) if p[0] == "do"]
        assert acts[-2:] == ["submit-result", "seal"]


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_faults_within_bound_and_equivocators_only_byzantine(name, seed):
    groups, faults = groups_and_faults(workloads.GENERATORS[name](seed).scenario)
    for alias, members, byz in groups:
        faulty = [m for m in members if m in faults]
        f_max = (len(members) - 1) // 3 if byz else (len(members) - 1) // 2
        assert len(faulty) <= f_max, alias
        if not byz:
            assert all(faults[m] != "equivocate" for m in faulty), alias
