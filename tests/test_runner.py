import inspect
from dataclasses import replace

import pytest

from otcestack import runner
from otcestack.ledger import TxKind
from otcestack.otce import OTCEState, eid_for_tx
from otcestack.plan import Protocol
from otcestack.runner import audit_chain, run_scenario
from otcestack.scenario import ScenarioError, parse_scenario

DAG_TEXT = """\
chunk c1 0105
task t1 add l:02 c:c1
task t2 hash t:t1
"""

THREE_CAUSES = """\
seed 42
max-ticks 4000
node n1
node n2
node n3
node n4
node n5
edge e1 0.9 n1,n2,n3,n4
edge low 0.3 n1,n2,n3,n4,n5
oracle o1
chunk n2 c1 0105

do register-did n1 role=72656c6179
do register-did n5 nickname=ff
do seal

do create-otce boxr group=n1,n2,n3,n4 delta=40 trust=edge:low
do create-otce boxe group=n1,n2,n3,n4 delta=2 trust=edge:low
do create-otce boxc group=n2,n3,n4,n5 delta=40 trust=edge:low
do seal

do consensus boxr value=aa11
do run-dag boxr file=work.dag
do submit-result boxr
do terminate boxc by=n3
do seal            # boxr results, boxc closed
do seal            # height 4 >= 1+2: boxe expires

do observe e1 n1 1 3
do observe e1 n2 0 2 by-oracle=o1
do update-trust e1
"""


def write_scenario(tmp_path, text=THREE_CAUSES, dag=DAG_TEXT):
    (tmp_path / "work.dag").write_text(dag)
    return parse_scenario(text)


def run(tmp_path, text=THREE_CAUSES):
    return run_scenario(write_scenario(tmp_path, text), base_dir=tmp_path)


# -- end-to-end ------------------------------------------------------------

def test_three_termination_causes(tmp_path):
    res = run(tmp_path)
    assert all(o.ok for o in res.outcomes), [o for o in res.outcomes if not o.ok]
    causes = {res.otce.record(eid).cause for eid in res.aliases.values()}
    assert causes == {"results", "expiry", "closed"}
    assert res.metrics["terminated_results"] == 1
    assert res.metrics["terminated_expiry"] == 1
    assert res.metrics["terminated_closed"] == 1
    assert res.metrics["otces_created"] == 3
    assert res.metrics["otces_terminated"] == 3
    states = {res.otce.record(eid).state for eid in res.aliases.values()}
    assert states == {OTCEState.TERMINATED}


def test_chain_verifies_and_replays(tmp_path):
    res = run(tmp_path)
    assert res.chain_ok
    assert res.replay_ok
    assert res.metrics["chain_ok"] == 1
    assert res.metrics["replay_ok"] == 1


def test_trust_arithmetic_flows_through(tmp_path):
    res = run(tmp_path)
    # edge starts 0.9; direct compliant obs: 0.8*0.9+0.2 = 0.92;
    # then the queued non-compliant oracle batch: 0.8*0.92 = 0.736
    assert res.graph.edges["e1"].trust == pytest.approx(0.736)
    assert res.metrics["trust_updates"] == 2
    assert res.metrics["observations_ingested"] == 1


def test_consensus_and_dag_results_recorded(tmp_path):
    res = run(tmp_path)
    assert len(res.consensus_results) == 1
    cons = res.consensus_results[0]
    assert cons.agreed and cons.honest_values() == [b"\xaa\x11"]
    assert res.metrics["consensus_runs"] == 1
    assert res.metrics["consensus_decided"] == 1
    assert res.metrics["consensus_violations"] == 0
    report = res.dag_reports["boxr"]
    assert report.completed
    assert res.metrics["dag_completed"] == 1
    assert res.metrics["net_sent"] >= cons.sent + report.sent


def test_committed_result_is_signed_by_the_report_signers(tmp_path):
    res = run(tmp_path)
    report = res.dag_reports["boxr"]
    assert report.signers
    committed = [tx for block in res.ledger.chain for tx in block.txs
                 if tx.kind is TxKind.SUBMIT_RESULT]
    assert len(committed) == 1
    eid, digest, sigs = res.otce.decode_payload(TxKind.SUBMIT_RESULT, committed[0].payload)
    assert eid == res.aliases["boxr"] and digest == report.digest
    assert tuple(node for node, _ in sigs) == report.signers
    run_dag = next(o for o in res.outcomes if o.verb == "run-dag")
    assert run_dag.detail.endswith(f"sigs={len(report.signers)}")


def test_dids_registered(tmp_path):
    res = run(tmp_path)
    assert res.metrics["dids_registered"] == 2
    assert len(res.dids.records) == 2


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    a = run(tmp_path).outputs()
    b = run(tmp_path).outputs()
    assert set(a) == {"chain.dump", "trace.log", "metrics.txt",
                      "otce.dump", "did.dump", "graph.dump"}
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_seed_override_changes_the_world(tmp_path):
    a = run(tmp_path)
    b = run_scenario(replace(write_scenario(tmp_path), seed=777, max_ticks=2500),
                     base_dir=tmp_path)
    assert b.scenario.seed == b.metrics["seed"] == 777
    assert b.trace[0] == "# run seed=777 max-ticks=2500"
    # the scenario is the run's only configuration: no copy to disagree with it
    assert not hasattr(b, "seed") and not hasattr(b, "max_ticks")
    assert a.outputs()["chain.dump"] != b.outputs()["chain.dump"]
    assert b.chain_ok and b.replay_ok


def test_run_scenario_takes_only_the_scenario_and_its_directory():
    params = inspect.signature(run_scenario).parameters
    assert list(params) == ["scn", "base_dir"]


def test_failed_action_is_recorded_not_fatal(tmp_path):
    text = "seed 1\nnode a\nnode b\ndo suspend ghost by=a\ndo seal\n"
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert [o.ok for o in res.outcomes] == [False, True]
    assert "ghost" in res.outcomes[0].detail
    assert res.chain_ok


def test_create_by_a_non_member_is_refused(tmp_path):
    text = """\
seed 1
node a
node b
node c
node d
node mallory
edge team 0.2 a,b,c,d
do create-otce box group=a,b,c,d delta=10 trust=edge:team by=mallory
do seal
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert res.metrics["txs_failed"] == 1 and res.metrics["txs_ok"] == 0
    assert res.otce.records == {}
    assert res.chain_ok and res.replay_ok


ABCD = "seed 1\nnode a\nnode b\nnode c\nnode d\n"


@pytest.mark.parametrize("group,trust,reason", [
    ("a,a,b,c,d", "0.2", "duplicate-members"),
    ("a,b,c", "0.1", "plan-infeasible"),        # byzantine plan needs 4
])
def test_refused_create_is_a_committed_failed_tx(tmp_path, group, trust, reason):
    text = ABCD + (f"edge team {trust} a,b,c,d\n"
                   f"do create-otce box group={group} delta=10 trust=edge:team\ndo seal\n")
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert all(o.ok for o in res.outcomes)
    assert res.ledger.chain[1].status == ((False, reason),)
    assert res.otce.records == {}
    assert res.metrics["txs_failed"] == 1 and res.metrics["txs_ok"] == 0
    assert res.metrics["chain_ok"] == 1 and res.metrics["replay_ok"] == 1


def test_create_refused_at_seal_frees_its_alias(tmp_path):
    text = (ABCD.replace("node d\n", "")
            + "edge low 0.1 a,b,c\n"
            + "edge high 0.9 a,b,c\n"
            + "do create-otce box group=a,b,c delta=10 trust=edge:low\n"
            + "do seal\n"
            + "do consensus box value=01\n"
            + "do create-otce box group=a,b,c delta=10 trust=edge:high\n"
            + "do seal\n"
            + "do consensus box value=02\n")
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    ok = [o.ok for o in res.outcomes]
    assert ok == [True, True, False, True, True, True]
    assert res.outcomes[2].detail == "sandbox 'box' was refused at creation: plan-infeasible"
    assert res.ledger.chain[1].status == ((False, "plan-infeasible"),)
    assert res.ledger.chain[2].status == ((True, "paxos"),)
    assert res.otce.record(res.aliases["box"]).plan.protocol is Protocol.PAXOS
    assert res.consensus_results[0].agreed
    assert res.chain_ok and res.replay_ok


def test_work_runs_only_in_a_running_sandbox(tmp_path):
    text = """\
seed 5
net 1 2 - 0.0
node a
node b
node c
edge team 0.9 a,b,c
do create-otce box group=a,b,c delta=50 trust=edge:team
do seal
do suspend box by=a
do seal
do consensus box value=aa
do run-dag box file=work.dag
do resume box by=a
do seal
do consensus box value=bb
do terminate box by=b
do seal
do consensus box value=cc
do run-dag box file=work.dag
"""
    res = run(tmp_path, text)
    assert [o.ok for o in res.outcomes] == [True] * 4 + [False] * 2 + [True] * 5 + [False] * 2
    assert {o.detail for o in res.outcomes[4:6]} == {"sandbox 'box' is Suspend, not Running"}
    assert {o.detail for o in res.outcomes[11:]} == {"sandbox 'box' is Terminated, not Running"}
    assert res.outcomes[8].detail.startswith("decided ")
    assert len(res.consensus_results) == 1 and res.dag_reports == {}
    assert res.otce.record(res.aliases["box"]).state is OTCEState.TERMINATED


def test_replay_re_derives_the_plan_of_a_create(tmp_path):
    text = ABCD + ("edge team 0.2 a,b,c,d\n"
                   "do create-otce box group=a,b,c,d delta=10 trust=edge:team\ndo seal\n")
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert res.ledger.chain[1].status == ((True, "pbft"),)
    # under tau 0.1 the same trust maps the group to the majority protocol
    moved = parse_scenario(text.replace("seed 1\n", "seed 1\nmapping 0.1 1.0\n"))
    bad, mismatches, _ = audit_chain(res.ledger.chain, moved, res.keystore)
    assert bad is None
    assert len(mismatches) == 1 and mismatches[0].startswith("height 1 ")
    assert "'paxos'" in mismatches[0]


def test_forged_expiry_before_the_due_height_is_a_committed_refusal(tmp_path):
    # anyone can sign as the system sender here, so a system terminate is
    # checked against the sandbox's expiry height, at sealing and in replay
    text = ABCD + """\
edge e 0.9 a,b,c,d
do create-otce s group=a,b,c,d delta=500 trust=edge:e by=a
do seal
do terminate s by=system
do seal
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert all(o.ok for o in res.outcomes)
    assert res.ledger.chain[2].status == ((False, "not-due"),)
    rec = res.otce.record(res.aliases["s"])
    assert rec.state is OTCEState.RUNNING and rec.cause is None
    assert res.metrics["txs_failed"] == 1
    assert res.chain_ok and res.replay_ok


def test_plan_switch_changes_next_consensus_engine(tmp_path):
    text = """\
seed 9
node a
node b
node c
node d
edge team 0.2 a,b,c,d
edge trusted 0.95 a,b,c,d
do create-otce box group=a,b,c,d delta=99 trust=edge:team
do seal
do consensus box value=01
do update-plan box trust=edge:trusted by=a
do seal
do consensus box value=02
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert all(o.ok for o in res.outcomes)
    first, second = res.consensus_results
    assert first.protocol is Protocol.PBFT
    assert second.protocol is Protocol.PAXOS
    assert first.agreed and second.agreed
    # the switch is a committed transaction, not just registry state
    plan_txs = [tx for block in res.ledger.chain for tx in block.txs
                if tx.kind.name == "UPDATE_PLAN"]
    assert len(plan_txs) == 1
    eid = res.aliases["box"]
    assert res.otce.record(eid).plan.protocol is Protocol.PAXOS


def test_trust_spec_can_reference_edge(tmp_path):
    text = """\
seed 3
node a
node b
node c
node d
edge e9 0.95 a,b,c,d
do create-otce box group=a,b,c,d delta=10 trust=edge:e9
do seal
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert all(o.ok for o in res.outcomes)
    eid = res.aliases["box"]
    # trust 0.95 >= tau 0.8 so the mapping picks the majority protocol
    assert res.otce.record(eid).plan.protocol is Protocol.PAXOS


def test_observation_of_a_non_member_does_not_move_trust(tmp_path):
    text = """\
seed 3
node a
node b
node c
node z
edge e1 0.9 a,b,c
oracle o1
do observe e1 z 0 99
do observe e1 nobody 0 99
do observe e1 nobody 0 99 by-oracle=o1
do update-trust e1
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert [o.ok for o in res.outcomes] == [False, False, False, True]
    assert res.outcomes[0].detail == "subject z is not a member of edge e1"
    assert res.outcomes[2].detail == "oracle record rejected"
    assert res.graph.edges["e1"].trust == 0.9
    assert res.metrics["observations_rejected"] == 1
    assert res.metrics["trust_updates"] == 1


def test_a_negative_latency_fails_the_observation_on_both_paths(tmp_path):
    text = """\
seed 3
trust 0.5 10
node a
node b
edge team 0.5 a,b
oracle o1
do observe team b 1 -7
do observe team b 1 -7 by-oracle=o1
do update-trust team
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert [o.ok for o in res.outcomes] == [False, False, True]
    assert [o.detail for o in res.outcomes[:2]] == ["latency must be non-negative"] * 2
    assert res.graph.edges["team"].trust == 0.5
    assert res.metrics["observations_ingested"] == 0
    assert res.metrics["trust_updates"] == 1


def _locality_run(tmp_path, left_actions):
    """A run of two groups on edges that share no member, with
    `left_actions` on the left edge between the creates and the update-plans."""
    text = "\n".join([
        "seed 5", "trust 0.5 10", *(f"node {n}" for n in "abcdefghz"),
        "edge left 0.9 a,b,c,d", "edge right 0.9 e,f,g,h", "oracle o1",
        "do create-otce L group=a,b,c,d delta=50 trust=edge:left by=a",
        "do create-otce R group=e,f,g,h delta=50 trust=edge:right by=e",
        "do seal", *(f"do {a}" for a in left_actions),
        "do update-plan L trust=edge:left by=b",
        "do update-plan R trust=edge:right by=f", "do seal", ""])
    return run_scenario(parse_scenario(text), base_dir=tmp_path)


def _group_view(res, alias):
    """The committed (kind, status) of each create and update-plan of the
    sandbox `alias`, and its otce.dump line."""
    eid = res.aliases[alias]
    statuses = [(tx.kind, status) for block in res.ledger.chain
                for tx, status in zip(block.txs, block.status)
                if eid_for_tx(tx.tx_id) == eid or (
                    tx.kind is TxKind.UPDATE_PLAN
                    and res.otce.decode_payload(tx.kind, tx.payload)[0] == eid)]
    lines = [line for line in res.otce.dump().splitlines() if line.startswith(eid)]
    return statuses, lines


def test_a_group_is_free_from_interference_by_irrelevant_nodes(tmp_path):
    # the quiet run's observations name a node outside the left edge, so
    # they are refused and move nothing; both runs have as many actions, so
    # each tx has the same nonce, and each sandbox the same eid, in both
    quiet = _locality_run(tmp_path, ["observe left z 0 99"] * 3)
    loud = _locality_run(tmp_path, ["observe left a 0 99",
                                    "observe left b 0 99 by-oracle=o1",
                                    "update-trust left"])
    assert [o.ok for o in loud.outcomes] == [True] * len(loud.outcomes)
    # the left edge's trust fell below tau, so its group's plan moved ...
    assert loud.graph.edges["left"].trust < 0.8 <= quiet.graph.edges["left"].trust
    assert _group_view(loud, "L")[0][-1] != _group_view(quiet, "L")[0][-1]
    # ... and the right group's committed statuses and record did not
    assert _group_view(loud, "R") == _group_view(quiet, "R")
    assert _group_view(loud, "R")[0] == [(TxKind.CREATE_OTCE, (True, "paxos")),
                                         (TxKind.UPDATE_PLAN, (True, "paxos"))]


def test_edge_trust_only_for_a_group_within_the_edge(tmp_path):
    text = """\
seed 3
node a
node b
node c
node d
node z
edge team 0.30 a,b,c,d
edge other 0.99 a,z
do create-otce box group=a,b,c,d delta=10 trust=edge:other by=b
do create-otce box group=a,b,c,d delta=10 trust=edge:team by=b
do update-plan box trust=edge:other by=a
do seal
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert [o.ok for o in res.outcomes] == [False, True, False, True]
    assert res.outcomes[0].detail == "group member(s) 'b', 'c', 'd' not in edge 'other'"
    assert res.outcomes[2].detail == res.outcomes[0].detail
    assert res.otce.record(res.aliases["box"]).plan.protocol is Protocol.PBFT


@pytest.mark.parametrize("spec", ["0.99", "0.99,0.99", "other"])
def test_trust_comes_only_from_an_edge(tmp_path, spec):
    # a raw vector would give the low-trust team the crash-only plan
    text = f"""\
seed 3
node a
node b
node c
node d
node z
edge team 0.30 a,b,c,d
edge other 0.99 a,z
do create-otce box group=a,b,c,d delta=80 trust={spec} by=a
do seal
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert [o.ok for o in res.outcomes] == [False, True]
    assert res.outcomes[0].detail == f"trust must be edge:<id>, got {spec!r}"
    assert res.otce.records == {} and res.aliases == {}
    assert res.metrics["txs_ok"] == res.metrics["txs_failed"] == 0
    assert res.chain_ok and res.replay_ok


def test_faults_reach_consensus_networks(tmp_path):
    text = """\
seed 5
max-ticks 4000
node a
node b
node c
node d
fault d crash at=0
edge team 0.2 a,b,c,d
do create-otce box group=a,b,c,d delta=50 trust=edge:team
do seal
do consensus box value=0badf00d
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    cons = res.consensus_results[0]
    assert cons.faulty == ("d",)
    assert not cons.beyond_bound
    assert cons.stalled == ()
    assert cons.honest_values() == [b"\x0b\xad\xf0\x0d"]


def test_unreadable_dag_file_is_a_harness_error(tmp_path):
    text = """\
seed 4
node a
node b
node c
node d
edge team 0.2 a,b,c,d
do create-otce box group=a,b,c,d delta=50 trust=edge:team
do seal
do run-dag box file=missing.dag
"""
    with pytest.raises(ScenarioError, match="missing.dag"):
        run_scenario(parse_scenario(text), base_dir=tmp_path)


def test_metrics_text_is_sorted_key_value(tmp_path):
    res = run(tmp_path)
    lines = res.metrics_text().splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == sorted(keys)
    assert all("=" in line for line in lines)
    assert f"seed={res.scenario.seed}" in lines


def test_an_instance_with_a_violation_is_not_counted_as_decided(tmp_path, monkeypatch):
    real = runner.run_instance

    def disagreeing(*args, instance_id, **kw):
        result = real(*args, instance_id=instance_id, **kw)
        if instance_id.startswith("box."):
            return replace(result, violations=("disagreement:00000000,11111111",))
        return result

    monkeypatch.setattr(runner, "run_instance", disagreeing)
    text = """\
seed 5
node a
node b
node c
edge team 0.95 a,b,c
do create-otce box group=a,b,c delta=99 trust=edge:team
do create-otce other group=a,b,c delta=99 trust=edge:team
do seal
do consensus box value=01
do consensus other value=02
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert all(not r.stalled and r.decisions for r in res.consensus_results)
    assert (res.metrics["consensus_runs"], res.metrics["consensus_violations"],
            res.metrics["consensus_decided"]) == (2, 1, 1)


def test_an_equivocator_in_a_crash_plan_group_is_beyond_the_bound(tmp_path):
    text = """\
seed 1
net 1 9 3 0.0
node a
node b
node c
edge team 0.95 a,b,c
fault a equivocate
do create-otce box group=a,b,c delta=80 trust=edge:team
do seal
do consensus box value=01
do consensus box value=02
do consensus box value=03
"""
    res = run_scenario(parse_scenario(text), base_dir=tmp_path)
    assert all(r.protocol is Protocol.PAXOS for r in res.consensus_results)
    assert res.metrics["consensus_beyond_bound"] == 3
    assert res.metrics["consensus_decided"] == 3 - res.metrics["consensus_violations"]
