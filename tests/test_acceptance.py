"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single summary line on
success, so a verbose run reads as a checklist.  These tests lean on the
brute-force oracles and workload builders defined in the unit test modules.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

from otcestack import codec
from otcestack.bvm import execute_collaborative, sequential_oracle
from otcestack.consensus import run_instance
from otcestack.keys import KeyStore
from otcestack.ledger import Ledger, TxKind, make_tx, replay_chain, verify_chain
from otcestack.otce import (LEGAL_TRANSITIONS, OTCERegistry, create_payload,
                            eid_for_tx, lifecycle_payload, submit_result_payload,
                            update_plan_payload)
from otcestack.plan import (PlanMapping, Protocol, make_plan, map_trust_to_plan,
                            plan_score, trust_vector)
from otcestack.runner import run_scenario
from otcestack.scenario import parse_scenario
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig

from conftest import make_random_dag, rebuilt_tx, spread_chunks
from test_hypergraph import brute_clustering, brute_degrees, random_graph
from test_ledger import build_chain, flip_bit
from test_otce import good_submission

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BEHAVIORS = (Behavior.CRASH, Behavior.DROP_ALL, Behavior.DELAY_MAX,
             Behavior.EQUIVOCATE)


def sweep_combos():
    """Every protocol/size/fault-count/behavior combination under the bound."""
    combos = []
    for n in (4, 7):
        f_max = make_plan(Protocol.PBFT, n).f_max
        combos.append((Protocol.PBFT, n, 0, None))
        for f in range(1, f_max + 1):
            for b in BEHAVIORS:
                combos.append((Protocol.PBFT, n, f, b))
    for n in (3, 5):
        f_max = make_plan(Protocol.PAXOS, n).f_max
        combos.append((Protocol.PAXOS, n, 0, None))
        for f in range(1, f_max + 1):
            combos.append((Protocol.PAXOS, n, f, Behavior.CRASH))
    return combos


def make_faults(rng, members, count, behavior, pool=None):
    faulty = rng.sample(sorted(pool if pool is not None else members), count)
    faults = []
    for node in faulty:
        at = rng.randrange(0, 30) if behavior is Behavior.CRASH else 0
        faults.append(FaultSpec(node, behavior, at_tick=at))
    return tuple(faults)


# -- criterion 1: consensus safety sweep -----------------------------------

def test_criterion_01_consensus_safety_sweep():
    ks = KeyStore(5)
    t0 = time.perf_counter()
    runs = 0
    for ci, (proto, n, f, behavior) in enumerate(sweep_combos()):
        members = tuple(f"r{i}" for i in range(n))
        plan = make_plan(proto, n)
        for s in range(100):
            rng = random.Random(100_000 * ci + s)
            value = bytes([1 + s % 255, ci])
            faults = make_faults(rng, members, f, behavior) if f else ()
            cfg = NetworkConfig(delay_min=1, delay_max=3, seed=rng.randrange(2**31))
            res = run_instance(plan, members, value, ks, net_cfg=cfg,
                               faults=faults)
            assert res.violations == (), (proto, n, f, behavior, s)
            assert len(res.honest_values()) <= 1
            if behavior is not Behavior.EQUIVOCATE:
                assert set(res.honest_values()) <= {value}
            runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"[criterion 01] PASS safety sweep: {runs} runs, "
          f"0 violations, {elapsed:.1f}s")


# -- criterion 2: liveness after stabilization ------------------------------

def test_criterion_02_liveness_with_live_leader():
    ks = KeyStore(5)
    t0 = time.perf_counter()
    runs = 0
    for ci, (proto, n, f, behavior) in enumerate(sweep_combos()):
        members = tuple(f"r{i}" for i in range(n))
        plan = make_plan(proto, n)
        for s in range(100):
            rng = random.Random(7_000_000 + 100_000 * ci + s)
            value = bytes([1 + s % 255])
            # keep the initial leader/proposer correct: faults hit followers only
            faults = (make_faults(rng, members, f, behavior, pool=members[1:])
                      if f else ())
            cfg = NetworkConfig(delay_min=1, delay_max=4, drop_rate=0.25,
                                gst=50, seed=rng.randrange(2**31))
            res = run_instance(plan, members, value, ks, net_cfg=cfg,
                               faults=faults)
            assert res.stalled == (), (proto, n, f, behavior, s, res.stalled)
            assert res.violations == ()
            assert all(m in res.decisions for m in res.honest)
            assert res.ticks <= 5000
            runs += 1
    elapsed = time.perf_counter() - t0
    print(f"[criterion 02] PASS liveness: {runs} lossy gst=50 runs, "
          f"all decided within 5000 ticks, {elapsed:.1f}s")


# -- criterion 3: beyond-bound equivocation is never silent -----------------

def test_criterion_03_beyond_bound_never_silent():
    ks = KeyStore(5)
    members = ("r0", "r1", "r2", "r3")
    plan = make_plan(Protocol.PBFT, 4)
    stalls = agreements = 0
    for s in range(100):
        rng = random.Random(31_000 + s)
        faulty = rng.sample(members, 2)
        faults = tuple(FaultSpec(m, Behavior.EQUIVOCATE) for m in faulty)
        cfg = NetworkConfig(delay_min=1, delay_max=3, seed=s)
        res = run_instance(plan, members, b"\x77", ks, net_cfg=cfg,
                           faults=faults)
        assert res.beyond_bound
        vals = res.honest_values()
        if len(vals) > 1:
            # disagreement must be loudly recorded, never silent
            assert res.violations, (s, faulty, vals)
        if res.stalled:
            stalls += 1
        elif len(vals) == 1:
            agreements += 1
    # a crash plan's fault model has no liars: one equivocator is already
    # outside it, within f_max or not
    disagreements = 0
    for n in (3, 5):
        members = tuple(f"r{i}" for i in range(n))
        plan = make_plan(Protocol.PAXOS, n)
        for s in range(100):
            rng = random.Random(33_000 + 1000 * n + s)
            faults = (FaultSpec(rng.choice(members), Behavior.EQUIVOCATE),)
            cfg = NetworkConfig(delay_min=1, delay_max=rng.randint(1, 30),
                                gst=rng.randint(0, 40), seed=s)
            res = run_instance(plan, members, b"\x77", ks, net_cfg=cfg,
                               faults=faults, view_timeout=rng.randint(5, 40))
            assert res.beyond_bound, (n, s)
            if len(res.honest_values()) > 1:
                assert res.violations, (n, s)
                disagreements += 1
    print(f"[criterion 03] PASS beyond-bound: 100 double-equivocator runs "
          f"all flagged ({stalls} stalls, {agreements} flagged agreements); "
          f"200 crash-plan runs with one equivocator all flagged "
          f"({disagreements} disagreements)")


# -- criterion 4: lifecycle fuzz -------------------------------------------

def test_criterion_04_lifecycle_fuzz():
    pool = ("n1", "n2", "n3", "n4", "n5", "n6", "n7")
    total_steps = 0
    for seed in (101, 202, 303):
        ks = KeyStore(11)
        ledger = Ledger(ks)
        reg = OTCERegistry(ks, PlanMapping())
        ledger.register_contract(reg)
        rng = random.Random(seed)
        live = {}          # eid -> group, admitted creates
        nonce = 0
        checked = 0        # transitions already audited
        for _ in range(4000):
            total_steps += 1
            nonce += 1
            roll = rng.random()
            if roll < 0.15 or not live:
                group = tuple(sorted(rng.sample(pool, rng.randint(2, 7))))
                # a low trust on a group under 4 maps to no feasible plan
                tv = (round(rng.random(), 3),)
                if rng.random() < 0.15:
                    tv = (1.5,)                          # out of range
                tx = make_tx(ks, rng.choice(group), TxKind.CREATE_OTCE,
                             create_payload(group, rng.randint(1, 12), tv, nonce))
                ok, _ = ledger.submit_tx(tx)
                if ok:
                    live[eid_for_tx(tx.tx_id)] = group
            elif roll < 0.60:
                eid = rng.choice(sorted(live) + ["Edeadbeef0000"])
                group = live.get(eid, pool)
                sender = rng.choice(group + ("outsider",))
                kind = rng.choice((TxKind.SUSPEND_OTCE, TxKind.RESUME_OTCE,
                                   TxKind.TERMINATE_OTCE, TxKind.UPDATE_PLAN))
                if kind is TxKind.UPDATE_PLAN:
                    payload = update_plan_payload(eid, (round(rng.random(), 3),), nonce)
                else:
                    payload = lifecycle_payload(kind, eid, nonce)
                ledger.submit_tx(make_tx(ks, sender, kind, payload))
            elif roll < 0.75:
                eid = rng.choice(sorted(live))
                group = live[eid]
                sub = good_submission(ks, eid, group, rng.randint(0, len(group)))
                ledger.submit_tx(make_tx(ks, rng.choice(group),
                                         TxKind.SUBMIT_RESULT,
                                         submit_result_payload(*sub, nonce)))
            else:
                ledger.seal_block()
                height = ledger.current_height()
                for rec in reg.alive():
                    assert rec.expiry_height > height, rec.eid
            for entry in reg.transitions[checked:]:
                assert (entry[1], entry[2]) in LEGAL_TRANSITIONS, entry
            checked = len(reg.transitions)
        ledger.seal_block()
        created = [eid_for_tx(tx.tx_id)
                   for b in ledger.chain
                   for tx, (ok, _) in zip(b.txs, b.status)
                   if ok and tx.kind is TxKind.CREATE_OTCE]
        assert len(created) == len(set(created))
        assert {e for e, *_ in reg.transitions} == set(created)
        assert verify_chain(ledger.chain, ks) is None
        fresh = OTCERegistry(ks, PlanMapping())
        assert replay_chain(ledger.chain, [fresh]) == []
        assert fresh.dump() == reg.dump()
    print(f"[criterion 04] PASS lifecycle fuzz: {total_steps} steps, "
          f"all transitions legal, nothing alive past expiry")


# -- criterion 5: tamper detection -----------------------------------------

def test_criterion_05_single_bit_tamper_detection():
    ks, ledger, _ = build_chain(n_blocks=50, seed=88, sweep_every=4)
    rng = random.Random(20260822)
    tx_heights = [i for i, b in enumerate(ledger.chain) if b.txs]
    detected = 0
    for _ in range(1000):
        chain = list(ledger.chain)
        field = rng.choice(["hash", "prev_hash", "tx_payload", "tx_sender",
                            "tx_sig", "tx_id", "status_ok", "status_reason"])
        if field in ("hash", "prev_hash"):
            h = rng.randrange(len(chain))
            block = chain[h]
            if field == "hash":
                block = replace(block, hash=flip_bit(block.hash, rng))
            else:
                if h == 0:
                    field = "hash"
                    block = replace(block, hash=flip_bit(block.hash, rng))
                else:
                    block = replace(block, prev_hash=flip_bit(block.prev_hash, rng))
        else:
            h = rng.choice(tx_heights)
            block = chain[h]
            ti = rng.randrange(len(block.txs))
            txs, status = list(block.txs), list(block.status)
            tx = txs[ti]
            if field == "tx_payload":
                txs[ti] = rebuilt_tx(tx, payload=flip_bit(tx.payload, rng))
            elif field == "tx_sender":
                flipped = ord(tx.sender[0]) ^ (1 << rng.randrange(5))
                txs[ti] = rebuilt_tx(tx, sender=chr(flipped) + tx.sender[1:])
            elif field == "tx_sig":
                txs[ti] = rebuilt_tx(tx, signature=flip_bit(tx.signature, rng))
            elif field == "tx_id":
                txs[ti] = rebuilt_tx(tx, tx_id=flip_bit(tx.tx_id, rng))
            elif field == "status_ok":
                ok, reason = status[ti]
                status[ti] = (not ok, reason)
            else:
                ok, reason = status[ti]
                flipped = ord(reason[0]) ^ (1 << rng.randrange(5))
                status[ti] = (ok, chr(flipped) + reason[1:])
            block = replace(block, txs=tuple(txs), status=tuple(status))
        chain[h] = block
        assert verify_chain(chain, ks) == h, (field, h)
        detected += 1
    print(f"[criterion 05] PASS tamper detection: {detected}/1000 mutations "
          f"caught at the exact height")


# -- criterion 6: shipped scenarios are deterministic and replayable --------

def test_criterion_06_scenarios_deterministic_and_replayable():
    paths = sorted(SCENARIO_DIR.glob("*.scn"))
    assert paths, SCENARIO_DIR
    assert any(p.name == "fig4.scn" for p in paths)
    for path in paths:
        text = path.read_text()
        first = run_scenario(parse_scenario(text), base_dir=SCENARIO_DIR)
        second = run_scenario(parse_scenario(text), base_dir=SCENARIO_DIR)
        assert first.outputs() == second.outputs(), path.name
        assert first.chain_ok and first.replay_ok, path.name
        if path.name == "fig4.scn":
            m = first.metrics
            assert m["terminated_results"] == 1
            assert m["terminated_expiry"] == 1
            assert m["terminated_closed"] == 1
    print(f"[criterion 06] PASS scenarios: {len(paths)} scenario(s) "
          f"byte-identical across reruns, chain verified and replayed")


# -- criterion 7: hypergraph analytics vs brute force -----------------------

def test_criterion_07_hypergraph_analytics_exact():
    rng = random.Random(777_001)
    for _ in range(50):
        g, nodes, edges = random_graph(rng)
        assert g.node_degrees() == brute_degrees(nodes, edges)
        want = brute_clustering(nodes, edges)
        got = g.clustering_coefficients()
        assert got == want
        dist = g.degree_distribution()
        degs = brute_degrees(nodes, edges)
        assert dist == {d: sum(1 for v in degs.values() if v == d)
                        for d in set(degs.values())}
    print("[criterion 07] PASS hypergraph analytics: 50 random graphs "
          "match brute force exactly")


# -- criterion 8: plan arithmetic and the on-chain switch --------------------

def test_criterion_08_plan_bounds_monotonicity_and_switch():
    for n in range(4, 101):
        plan = make_plan(Protocol.PBFT, n)
        assert plan.f_max == (n - 1) // 3
        assert plan.quorum == n - plan.f_max
        assert plan.quorum >= 2 * plan.f_max + 1
    for n in range(2, 101):
        plan = make_plan(Protocol.PAXOS, n)
        assert plan.f_max == (n - 1) // 2
        assert plan.quorum == n // 2 + 1
        assert 2 * plan.quorum > n

    rng = random.Random(88_202)
    for _ in range(1000):
        k = rng.randint(1, 4)
        rows = rng.randint(1, 3)
        weights = tuple(tuple(round(rng.uniform(0, 2), 3) for _ in range(k))
                        for _ in range(rows))
        mapping = PlanMapping(weights=weights, tau=round(rng.uniform(0.1, 0.9), 3))
        lo = [round(rng.random(), 3) for _ in range(k)]
        hi = [min(1.0, v + round(rng.uniform(0, 0.5), 3)) for v in lo]
        s_lo = plan_score(mapping, trust_vector(lo))
        s_hi = plan_score(mapping, trust_vector(hi))
        assert s_hi >= s_lo
        p_lo = map_trust_to_plan(mapping, trust_vector(lo), 5).protocol
        p_hi = map_trust_to_plan(mapping, trust_vector(hi), 5).protocol
        if p_lo is Protocol.PAXOS:
            assert p_hi is Protocol.PAXOS

    text = (SCENARIO_DIR / "plan_switch.scn").read_text()
    res = run_scenario(parse_scenario(text), base_dir=SCENARIO_DIR)
    protos = [r.protocol for r in res.consensus_results]
    assert protos == [Protocol.PAXOS, Protocol.PBFT]
    assert all(len(r.honest_values()) == 1 for r in res.consensus_results)
    switches = sum(1 for b in res.ledger.chain
                   for tx, (ok, _) in zip(b.txs, b.status)
                   if tx.kind is TxKind.UPDATE_PLAN and ok)
    assert switches == 1
    print("[criterion 08] PASS plan bounds: floor identities n<=100, 1000 "
          "monotone mappings, on-chain downgrade switch executed")


# -- criterion 10: collaborative evaluation --------------------------------

def first_exec_order(trace):
    order = {}
    for i, line in enumerate(trace):
        kind_label = line.split()[4]
        if kind_label.startswith("timer:exec:"):
            order.setdefault(kind_label.removeprefix("timer:exec:"), i)
    return order


def assert_dependency_order(dag, trace):
    order = first_exec_order(trace)
    for tid, task in dag.tasks.items():
        for inp in task.inputs:
            if inp.kind == "task":
                assert order[inp.ref] < order[tid], (inp.ref, tid)


def test_criterion_10_collaborative_evaluation():
    ks = KeyStore(5)
    members = ("w1", "w2", "w3")
    runs = crash_runs = 0
    for i in range(50):
        rng = random.Random(550_000 + i)
        dag, chunks = make_random_dag(rng, max_tasks=30, max_chunks=6)
        want = sequential_oracle(dag, chunks)
        for j in range(10):
            cfg = NetworkConfig(delay_min=1, delay_max=3, seed=1000 * i + j)
            rep = execute_collaborative(dag, members, spread_chunks(rng, chunks, members),
                                        ks, net_cfg=cfg)
            assert rep.completed and not rep.failed_tasks
            assert rep.values == want
            assert_dependency_order(dag, rep.trace)
            runs += 1
        if i % 5 == 0:
            # full replication, then kill one worker mid-run: retry must
            # reproduce the fault-free output
            holders = {m: dict(chunks) for m in members}
            cfg = NetworkConfig(delay_min=1, delay_max=3, seed=90_000 + i)
            rep = execute_collaborative(dag, members, holders, ks, net_cfg=cfg,
                                        faults=(FaultSpec("w1", Behavior.CRASH,
                                                          at_tick=4),))
            assert rep.completed and rep.values == want
            assert_dependency_order(dag, rep.trace)
            crash_runs += 1
    print(f"[criterion 10] PASS collaborative evaluation: {runs} runs match "
          f"the sequential oracle, {crash_runs} crash-retry runs identical")
