"""Scenario execution: scripted actions against the ledger, trust graph,
sandbox registry, consensus engines, and DAG executor.

One run owns one keystore (seeded from the scenario seed), one ledger, and
one trust graph. Every networked action (a consensus instance, a DAG
execution) gets its own network whose seed is derived from the run seed
and the action index, so runs are reproducible action by action and a
scenario edit upstream does not perturb downstream randomness.

The run ends with two self-checks recorded in the metrics: full chain
verification, and a replay of the committed chain into fresh contract
instances that must reproduce every recorded outcome and final dump.
`contracts_for` builds a scenario's contract pair and `audit_chain` runs
both checks; the run and ``otcestack replay`` share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import codec
from .bvm import ExecutionReport, execute_collaborative, parse_dag
from .consensus import InstanceResult, run_instance
from .did import AttestationPolicy, DIDRegistry, register_payload
from .hypergraph import (BehaviorObservation, TrustHypergraph,
                         make_oracle_record)
from .keys import KeyStore
from .ledger import (Ledger, TxKind, dump_chain, make_tx, replay_chain,
                     verify_chain)
from .otce import (OTCERegistry, combined_digest, create_payload, eid_for_tx,
                   result_message, ResultSubmission, resume_payload,
                   submit_result_payload, suspend_payload, terminate_payload,
                   update_plan_payload)
from .plan import PlanInfeasibleError, PlanMapping, map_trust_to_plan, trust_vector
from .scenario import ParsedAction, Scenario, ScenarioError
from .simnet import FaultSpec, NetworkConfig


class ActionError(ValueError):
    """A scripted action that could not take effect; recorded, not fatal."""


@dataclass
class ActionOutcome:
    index: int
    line_no: int
    verb: str
    ok: bool
    detail: str


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    keystore: KeyStore
    graph: TrustHypergraph
    ledger: Ledger
    otce: OTCERegistry
    dids: DIDRegistry
    aliases: dict[str, str]
    outcomes: list[ActionOutcome]
    consensus_results: list[InstanceResult]
    dag_reports: dict[str, ExecutionReport]
    trace: list[str]
    metrics: dict[str, int]
    chain_ok: bool
    replay_ok: bool

    def metrics_text(self) -> str:
        return "".join(f"{k}={self.metrics[k]}\n" for k in sorted(self.metrics))

    def outputs(self) -> dict[str, str]:
        return {
            "chain.dump": dump_chain(self.ledger.chain),
            "trace.log": "".join(line + "\n" for line in self.trace),
            "metrics.txt": self.metrics_text(),
            "otce.dump": self.otce.dump(),
            "did.dump": self.dids.dump(),
            "graph.dump": self.graph.dump(),
        }


def contracts_for(scn: Scenario, keystore: KeyStore) -> tuple[OTCERegistry, DIDRegistry]:
    """Fresh sandbox and identifier contracts under the scenario's plan
    mapping and attestation policy."""
    mapping = PlanMapping((tuple(scn.weights),), scn.tau)
    policy = AttestationPolicy(scn.policy) if scn.policy else None
    return OTCERegistry(keystore, mapping), DIDRegistry(policy)


def audit_chain(chain, scn: Scenario, keystore: KeyStore):
    """Verify the chain's links and signatures under the keystore and, when
    they hold, replay it into `contracts_for(scn, keystore)`. Returns the
    first bad height (None when intact), the replay mismatches and the
    replayed contract pair."""
    otce, dids = contracts_for(scn, keystore)
    bad = verify_chain(chain, keystore)
    mismatches = replay_chain(chain, [otce, dids]) if bad is None else []
    return bad, mismatches, (otce, dids)


def _net_seed(seed: int, index: int) -> int:
    return int.from_bytes(codec.digest("net-seed", seed, index)[:8], "big")


class _Runner:
    def __init__(self, scn: Scenario, base_dir: Path, seed: int, max_ticks: int):
        self.scn = scn
        self.base_dir = base_dir
        self.seed = seed
        self.max_ticks = max_ticks
        self.ks = KeyStore(seed)
        self.graph = TrustHypergraph(alpha=scn.alpha, latency_bound=scn.latency_bound)
        self.ledger = Ledger(self.ks)
        self.otce, self.dids = contracts_for(scn, self.ks)
        self.ledger.register_contract(self.otce)
        self.ledger.register_contract(self.dids)
        self.aliases: dict[str, str] = {}
        self.outcomes: list[ActionOutcome] = []
        self.consensus_results: list[InstanceResult] = []
        self.dag_reports: dict[str, ExecutionReport] = {}
        self.trace: list[str] = [f"# run seed={seed} max-ticks={max_ticks}"]
        self.m: dict[str, int] = {
            "actions_total": 0, "blocks_sealed": 0, "txs_ok": 0, "txs_failed": 0,
            "otces_created": 0, "otces_terminated": 0, "terminated_results": 0,
            "terminated_expiry": 0, "terminated_closed": 0,
            "consensus_runs": 0, "consensus_decided": 0, "consensus_stalled": 0,
            "consensus_violations": 0, "consensus_beyond_bound": 0,
            "dag_runs": 0, "dag_completed": 0, "dag_failed": 0,
            "net_sent": 0, "net_delivered": 0, "net_dropped": 0, "net_in_flight": 0,
            "observations_ingested": 0, "observations_rejected": 0,
            "trust_updates": 0, "dids_registered": 0,
        }
        for node in scn.nodes:
            self.graph.add_node(node)
            self.ks.ensure(node)
        for edge in scn.edges:
            self.graph.add_hyperedge(edge.members, edge.trust, edge_id=edge.edge_id)
        for oracle_id in scn.oracles:
            self.graph.register_oracle(oracle_id, self.ks)

    # -- shared lookups ----------------------------------------------------

    def _eid(self, alias: str) -> str:
        eid = self.aliases.get(alias)
        if eid is None:
            raise ActionError(f"unknown sandbox alias {alias!r}")
        return eid

    def _sealed_record(self, alias: str):
        rec = self.otce.records.get(self._eid(alias))
        if rec is None:
            raise ActionError(f"sandbox {alias!r} not sealed yet")
        return rec

    def _net_cfg(self, index: int) -> NetworkConfig:
        scn = self.scn
        return NetworkConfig(delay_min=scn.delay_min, delay_max=scn.delay_max,
                             gst=scn.gst, drop_rate=scn.drop_rate,
                             seed=_net_seed(self.seed, index))

    def _faults_for(self, members) -> list[FaultSpec]:
        group = set(members)
        return [f for f in self.scn.faults if f.node in group]

    def _count_net(self, run: InstanceResult | ExecutionReport) -> None:
        for key in ("sent", "delivered", "dropped", "in_flight"):
            self.m["net_" + key] += getattr(run, key)

    def _submit(self, tx) -> str:
        ok, reason = self.ledger.submit_tx(tx)
        if not ok:
            raise ActionError(f"rejected: {reason}")
        return tx.tx_id.hex()[:12]

    @staticmethod
    def _hex(tok: str, what: str) -> bytes:
        try:
            return bytes.fromhex(tok)
        except ValueError:
            raise ActionError(f"{what} must be hex, got {tok!r}") from None

    @staticmethod
    def _int(tok: str, what: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ActionError(f"{what} must be an integer, got {tok!r}") from None

    def _trust_components(self, spec: str) -> tuple[float, ...]:
        if spec.startswith("edge:"):
            edge_id = spec[len("edge:"):]
            try:
                return (self.graph.trust(edge_id),)
            except ValueError:
                raise ActionError(f"unknown edge {edge_id!r}") from None
        try:
            return tuple(float(tok) for tok in spec.split(","))
        except ValueError:
            raise ActionError(f"bad trust vector {spec!r}") from None

    # -- actions -----------------------------------------------------------

    def run_action(self, index: int, action: ParsedAction) -> str:
        handler = getattr(self, "_do_" + action.verb.replace("-", "_"))
        return handler(index, action)

    def _do_register_did(self, index: int, action: ParsedAction) -> str:
        identity = action.args[0]
        pubkey = self.ks.ensure(identity)
        attestation = {name: self._hex(val, f"attribute {name}")
                       for name, val in action.kw.items()}
        payload = register_payload(pubkey, attestation, nonce=index)
        tx = make_tx(self.ks, identity, TxKind.REGISTER_DID, payload)
        return "submitted " + self._submit(tx)

    def _do_seal(self, index: int, action: ParsedAction) -> str:
        count = self._int(action.args[0], "count") if action.args else 1
        if count < 1:
            raise ActionError("count must be positive")
        sealed = []
        for _ in range(count):
            block = self.ledger.seal_block()
            self.m["blocks_sealed"] += 1
            self.m["txs_ok"] += sum(1 for ok, _ in block.status if ok)
            self.m["txs_failed"] += sum(1 for ok, _ in block.status if not ok)
            sealed.append(f"h{block.height}:{len(block.txs)}tx")
        return "sealed " + ",".join(sealed)

    def _do_create_otce(self, index: int, action: ParsedAction) -> str:
        alias = action.args[0]
        if alias in self.aliases:
            raise ActionError(f"duplicate alias {alias!r}")
        group = tuple(sorted(set(action.kw["group"].split(","))))
        delta_t = self._int(action.kw["delta"], "delta")
        components = self._trust_components(action.kw["trust"])
        try:
            plan = map_trust_to_plan(self.otce.mapping, trust_vector(components),
                                     len(group))
        except PlanInfeasibleError as exc:
            raise ActionError(f"plan-infeasible: {exc}") from None
        except ValueError as exc:
            raise ActionError(f"bad-trust-vector: {exc}") from None
        sender = action.kw.get("by", group[0])
        tx = make_tx(self.ks, sender, TxKind.CREATE_OTCE,
                     create_payload(group, delta_t, plan, nonce=index))
        self._submit(tx)
        self.aliases[alias] = eid_for_tx(tx.tx_id)
        return f"submitted {self.aliases[alias]} plan={plan.protocol.value}"

    def _do_suspend(self, index: int, action: ParsedAction) -> str:
        eid = self._eid(action.args[0])
        tx = make_tx(self.ks, action.kw["by"], TxKind.SUSPEND_OTCE,
                     suspend_payload(eid, b"", nonce=index))
        return "submitted " + self._submit(tx)

    def _do_resume(self, index: int, action: ParsedAction) -> str:
        eid = self._eid(action.args[0])
        tx = make_tx(self.ks, action.kw["by"], TxKind.RESUME_OTCE,
                     resume_payload(eid, nonce=index))
        return "submitted " + self._submit(tx)

    def _do_terminate(self, index: int, action: ParsedAction) -> str:
        eid = self._eid(action.args[0])
        tx = make_tx(self.ks, action.kw["by"], TxKind.TERMINATE_OTCE,
                     terminate_payload(eid, "closed", nonce=index))
        return "submitted " + self._submit(tx)

    def _do_update_plan(self, index: int, action: ParsedAction) -> str:
        eid = self._eid(action.args[0])
        components = self._trust_components(action.kw["trust"])
        tx = make_tx(self.ks, action.kw["by"], TxKind.UPDATE_PLAN,
                     update_plan_payload(eid, components, nonce=index))
        return "submitted " + self._submit(tx)

    def _observation(self, index: int, args, oracle_id: str | None) -> BehaviorObservation:
        """Parse `edge subject compliant latency`; with an oracle, queue the
        observation on its edge as that oracle's signed record."""
        edge_id, subject, compliant_s, latency_s = args
        if compliant_s not in ("0", "1"):
            raise ActionError(f"compliant must be 0 or 1, got {compliant_s!r}")
        obs = BehaviorObservation(subject, edge_id, compliant_s == "1",
                                  self._int(latency_s, "latency"), observed_at=index)
        if oracle_id is not None:
            record = make_oracle_record(self.ks, oracle_id, obs)
            if not self.graph.ingest_oracle_record(record):
                self.m["observations_rejected"] += 1
                raise ActionError("oracle record rejected")
            self.m["observations_ingested"] += 1
        return obs

    def _do_observe(self, index: int, action: ParsedAction) -> str:
        oracle_id = action.kw.get("by-oracle")
        obs = self._observation(index, action.args, oracle_id)
        if oracle_id is not None:
            return f"queued for {obs.edge_id}"
        try:
            new_trust = self.graph.update_trust(obs.edge_id, [obs])
        except ValueError as exc:
            raise ActionError(str(exc)) from None
        self.m["trust_updates"] += 1
        return f"trust[{obs.edge_id}]={new_trust!r}"

    def _do_oracle_feed(self, index: int, action: ParsedAction) -> str:
        edge_id = self._observation(index, action.args[1:], action.args[0]).edge_id
        return f"queued for {edge_id} ({self.graph.pending_count(edge_id)} pending)"

    def _do_update_trust(self, index: int, action: ParsedAction) -> str:
        edge_id = action.args[0]
        alpha = None
        if "alpha" in action.kw:
            try:
                alpha = float(action.kw["alpha"])
            except ValueError:
                raise ActionError(f"bad alpha {action.kw['alpha']!r}") from None
        try:
            new_trust = self.graph.update_trust(edge_id, None, alpha=alpha)
        except ValueError as exc:
            raise ActionError(str(exc)) from None
        self.m["trust_updates"] += 1
        return f"trust[{edge_id}]={new_trust!r}"

    def _do_consensus(self, index: int, action: ParsedAction) -> str:
        alias = action.args[0]
        rec = self._sealed_record(alias)
        value = self._hex(action.kw["value"], "value")
        instance_id = action.kw.get("instance", f"{alias}.{index}")
        result = run_instance(rec.plan, rec.group, value, self.ks,
                              net_cfg=self._net_cfg(index),
                              faults=self._faults_for(rec.group),
                              max_tick=self.max_ticks, instance_id=instance_id)
        self.consensus_results.append(result)
        self.trace.append(f"# action {index} consensus {instance_id}")
        self.trace.extend(result.trace)
        self.m["consensus_runs"] += 1
        self.m["consensus_decided"] += 1 if (not result.stalled and result.decisions) else 0
        self.m["consensus_stalled"] += len(result.stalled)
        self.m["consensus_violations"] += len(result.violations)
        self.m["consensus_beyond_bound"] += 1 if result.beyond_bound else 0
        self._count_net(result)
        if result.violations:
            return "violations: " + ";".join(result.violations)
        if result.stalled:
            return "stalled: " + ",".join(result.stalled)
        values = result.honest_values()
        return f"decided {codec.short(values[0])}" if values else "no honest decisions"

    def _do_run_dag(self, index: int, action: ParsedAction) -> str:
        alias = action.args[0]
        rec = self._sealed_record(alias)
        path = self.base_dir / action.kw["file"]
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read dag file {path}: {exc}") from None
        try:
            dag, file_chunks = parse_dag(text)
        except ValueError as exc:
            raise ScenarioError(f"dag file {path}: {exc}") from None
        holders: dict[str, dict[str, bytes]] = {}
        for decl in self.scn.chunks:
            if decl.node in rec.group:
                holders.setdefault(decl.node, {})[decl.chunk_id] = decl.data
        placed = {cid for store in holders.values() for cid in store}
        home = rec.group[0]
        for cid in sorted(dag.chunk_ids() - placed):
            if cid not in file_chunks:
                raise ScenarioError(f"dag file {path}: chunk {cid!r} has no data")
            holders.setdefault(home, {})[cid] = file_chunks[cid]
        report = execute_collaborative(dag, rec.group, holders, self.ks,
                                       net_cfg=self._net_cfg(index),
                                       faults=self._faults_for(rec.group),
                                       execution_id=f"{alias}.{index}",
                                       max_tick=self.max_ticks)
        self.dag_reports[alias] = report
        self.trace.append(f"# action {index} run-dag {report.execution_id}")
        self.trace.extend(report.trace)
        self.m["dag_runs"] += 1
        self.m["dag_completed"] += 1 if report.completed else 0
        self.m["dag_failed"] += 0 if report.completed else 1
        self._count_net(report)
        if not report.completed:
            return "incomplete: " + ",".join(report.failed_tasks)
        return f"digest {codec.short(report.digest)} sigs={len(report.signatures)}"

    def _do_submit_result(self, index: int, action: ParsedAction) -> str:
        alias = action.args[0]
        eid = self._eid(alias)
        report = self.dag_reports.get(alias)
        if report is None:
            raise ActionError(f"no dag execution recorded for {alias!r}")
        if not report.completed or report.digest is None:
            raise ActionError(f"dag execution for {alias!r} incomplete")
        signers = sorted(node for node, _ in report.signatures)
        digests = tuple((node, report.digest) for node in signers)
        message = result_message(eid, combined_digest(digests))
        sub = ResultSubmission(
            eid, digests,
            tuple((node, self.ks.sign(node, message)) for node in signers))
        sender = action.kw.get("by", signers[0] if signers else "nobody")
        tx = make_tx(self.ks, sender, TxKind.SUBMIT_RESULT,
                     submit_result_payload(sub, nonce=index))
        return "submitted " + self._submit(tx)

    # -- whole run ---------------------------------------------------------

    def run(self) -> RunResult:
        for index, action in enumerate(self.scn.actions):
            self.m["actions_total"] += 1
            try:
                detail = self.run_action(index, action)
                ok = True
            except ActionError as exc:
                detail, ok = str(exc), False
            self.outcomes.append(ActionOutcome(index, action.line_no, action.verb,
                                               ok, detail))
            self.trace.append(
                f"# outcome {index} {action.verb} {'ok' if ok else 'failed'} {detail}")

        self.m["seed"] = self.seed
        self.m["chain_height"] = self.ledger.current_height()
        self.m["dids_registered"] = len(self.dids.records)
        self.m["otces_created"] = len(self.otce.records)
        for rec in self.otce.records.values():
            if rec.cause is not None:
                self.m["otces_terminated"] += 1
                self.m["terminated_" + rec.cause] += 1

        bad, mismatches, (replay_otce, replay_dids) = audit_chain(
            self.ledger.chain, self.scn, self.ks)
        chain_ok = bad is None
        replay_ok = (chain_ok and not mismatches
                     and replay_otce.dump() == self.otce.dump()
                     and replay_dids.dump() == self.dids.dump())
        self.m["chain_ok"] = int(chain_ok)
        self.m["replay_ok"] = int(replay_ok)

        return RunResult(
            scenario=self.scn, seed=self.seed, keystore=self.ks, graph=self.graph,
            ledger=self.ledger, otce=self.otce, dids=self.dids,
            aliases=self.aliases, outcomes=self.outcomes,
            consensus_results=self.consensus_results, dag_reports=self.dag_reports,
            trace=self.trace, metrics=self.m, chain_ok=chain_ok, replay_ok=replay_ok)


def run_scenario(scn: Scenario, base_dir: str | Path = ".",
                 seed_override: int | None = None,
                 max_ticks_override: int | None = None) -> RunResult:
    seed = scn.seed if seed_override is None else seed_override
    max_ticks = scn.max_ticks if max_ticks_override is None else max_ticks_override
    if max_ticks < 1:
        raise ScenarioError(f"max-ticks must be positive, got {max_ticks}")
    return _Runner(scn, Path(base_dir), seed, max_ticks).run()
