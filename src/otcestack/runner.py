"""Scenario execution: scripted actions against the ledger, trust graph,
sandbox registry, consensus engines, and DAG executor.

One object per run: `RunResult` holds the run's keystore (seeded from the
scenario seed), ledger, trust graph and contracts, runs the scenario's
actions, and renders the outputs. The scenario is the run's only
configuration; `otcestack run` applies its override flags to the parsed
scenario before the run. Every networked action (a consensus instance, a
DAG execution) gets its own network whose seed is derived from the run
seed and the action index, so runs are reproducible action by action and a
scenario edit upstream does not perturb downstream randomness.

The run keeps one detail slot per action, and the set of actions that
failed; the action's index and verb are the scenario's. An action that
submitted a tx keeps that tx's id, which the chain holds too, and its
`submitted ...` text is rendered when read. A networked action keeps a
reference to the trace lines its instance's result or DAG report holds,
not a copy. `outcomes` builds `ActionOutcome`s from this record on demand,
and `trace.log` is rendered from it at output time, each `# outcome` line
included, so the run holds no second copy of a line or an outcome.

The run ends with two self-checks recorded in the metrics: full chain
verification, and a replay of the committed chain into fresh contract
instances that must reproduce every recorded outcome and final dump.
`contracts_for` builds a scenario's contract pair and `audit_chain` runs
both checks; the run and ``otcestack replay`` share them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .otce import (LIFECYCLE_TAGS, OTCERegistry, OTCEState, create_payload,
                   eid_for_tx, lifecycle_payload, result_message, submit_result_payload,
                   update_plan_payload)
from .plan import PlanMapping
from .scenario import ParsedAction, Scenario, ScenarioError
from .simnet import FaultSpec, NetReport, NetworkConfig


class ActionError(ValueError):
    """A scripted action that could not take effect; recorded, not fatal."""


@dataclass(slots=True)
class ActionOutcome:
    index: int
    verb: str
    ok: bool
    detail: str


def _detail_text(verb: str, detail: str | bytes) -> str:
    """An action's kept detail as text: the id of the tx it submitted reads
    `submitted <eid>` for a create and `submitted <id prefix>` otherwise."""
    if type(detail) is not bytes:
        return detail
    return "submitted " + (eid_for_tx(detail) if verb == "create-otce" else detail.hex()[:12])


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


# the scenario verbs that name only a sandbox -> their tx kinds
_LIFECYCLE_KINDS = {verb: kind for kind, verb in LIFECYCLE_TAGS.items()}


def _net_seed(seed: int, index: int) -> int:
    return int.from_bytes(codec.digest("net-seed", seed, index)[:8], "big")


class RunResult:
    """One run of `scenario`: its state, its actions and its outputs."""

    def __init__(self, scenario: Scenario, base_dir: Path):
        self.scenario = scenario
        self.base_dir = base_dir
        self.keystore = KeyStore(scenario.seed)
        self.graph = TrustHypergraph(scenario.alpha, scenario.latency_bound)
        self.ledger = Ledger(self.keystore)
        self.otce, self.dids = contracts_for(scenario, self.keystore)
        self.ledger.register_contract(self.otce)
        self.ledger.register_contract(self.dids)
        self.aliases: dict[str, str] = {}
        # alias -> `group=` text of its create (the scenario holds it); tx id
        # -> alias of each create not yet sealed; alias -> reason of each
        # create sealed as refused
        self._groups: dict[str, str] = {}
        self._creating: dict[bytes, str] = {}
        self._refused: dict[str, str] = {}
        # each action's detail, by index: its text, or the id of the tx it
        # submitted; the indices of the actions that failed; and action
        # index -> (run id, trace lines) of each networked action
        self._details: list[str | bytes] = []
        self.failed: set[int] = set()
        self._runs: dict[int, tuple[str, tuple[str, ...]]] = {}
        self.consensus_results: list[InstanceResult] = []
        self.dag_reports: dict[str, ExecutionReport] = {}
        self.metrics: dict[str, int] = {
            "txs_ok": 0, "txs_failed": 0, "otces_terminated": 0,
            "terminated_results": 0, "terminated_expiry": 0, "terminated_closed": 0,
            "consensus_runs": 0, "consensus_decided": 0, "consensus_stalled": 0,
            "consensus_violations": 0, "consensus_beyond_bound": 0,
            "dag_runs": 0, "dag_completed": 0, "dag_failed": 0,
            "net_sent": 0, "net_delivered": 0, "net_dropped": 0, "net_in_flight": 0,
            "observations_ingested": 0, "observations_rejected": 0,
            "trust_updates": 0,
        }
        self.chain_ok = self.replay_ok = False
        for node in scenario.nodes:
            self.graph.add_node(node)
        for edge in scenario.edges:
            self.graph.add_hyperedge(edge.members, edge.trust, edge_id=edge.edge_id)
        for oracle_id in scenario.oracles:
            self.graph.register_oracle(oracle_id, self.keystore)

    @property
    def outcomes(self) -> list[ActionOutcome]:
        """Each action's outcome, built from the run's record."""
        failed = self.failed
        return [ActionOutcome(i, action.verb, i not in failed, _detail_text(action.verb, detail))
                for i, (action, detail) in enumerate(zip(self.scenario.actions, self._details))]

    @property
    def trace(self) -> list[str]:
        """The lines of trace.log, rendered from the run's record."""
        scn, runs, failed = self.scenario, self._runs, self.failed
        lines = [f"# run seed={scn.seed} max-ticks={scn.max_ticks}"]
        append = lines.append
        for i, (action, detail) in enumerate(zip(scn.actions, self._details)):
            verb = action.verb
            if i in runs:
                run_id, run_trace = runs[i]
                append(f"# action {i} {verb} {run_id}")
                lines += run_trace
            status = "failed" if i in failed else "ok"
            append(f"# outcome {i} {verb} {status} {_detail_text(verb, detail)}")
        return lines

    def metrics_text(self) -> str:
        return "".join(f"{k}={self.metrics[k]}\n" for k in sorted(self.metrics))

    def outputs(self) -> dict[str, str]:
        chain = dump_chain(self.ledger.chain)
        # an empty last line ends the text with a newline, without a
        # second copy of it
        lines = self.trace
        lines.append("")
        return {
            "chain.dump": chain,
            "trace.log": "\n".join(lines),
            "metrics.txt": self.metrics_text(),
            "otce.dump": self.otce.dump(),
            "did.dump": self.dids.dump(),
            "graph.dump": self.graph.dump(),
        }

    # -- shared lookups ----------------------------------------------------

    def _eid(self, alias: str) -> str:
        eid = self.aliases.get(alias)
        if eid is None:
            if alias in self._refused:
                raise ActionError(
                    f"sandbox {alias!r} was refused at creation: {self._refused[alias]}")
            raise ActionError(f"unknown sandbox alias {alias!r}")
        return eid

    def _running_record(self, alias: str):
        """The sandbox's record, which must be sealed and Running."""
        rec = self.otce.records.get(self._eid(alias))
        if rec is None:
            raise ActionError(f"sandbox {alias!r} not sealed yet")
        if rec.state is not OTCEState.RUNNING:
            raise ActionError(f"sandbox {alias!r} is {rec.state.value}, not Running")
        return rec

    def _net_cfg(self, index: int) -> NetworkConfig:
        return replace(self.scenario.net, seed=_net_seed(self.scenario.seed, index))

    def _faults_for(self, members) -> list[FaultSpec]:
        group = set(members)
        return [f for f in self.scenario.faults if f.node in group]

    def _record_run(self, index: int, run_id: str, run: NetReport) -> None:
        """Keep a network run's trace for its action's lines in trace.log,
        and add its message counts to the `net_*` metrics."""
        self._runs[index] = (run_id, run.trace)
        for key in ("sent", "delivered", "dropped", "in_flight"):
            self.metrics["net_" + key] += getattr(run, key)

    def _submit(self, tx) -> bytes:
        """Admit `tx`; its id, the detail of the action that submitted it."""
        ok, reason = self.ledger.submit_tx(tx)
        if not ok:
            raise ActionError(f"rejected: {reason}")
        return tx.tx_id

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

    def _trust_components(self, spec: str, group) -> tuple[float, ...]:
        """The trust vector `trust=edge:<id>` gives `group`: the edge's
        trust, and only for a group within the edge."""
        if not spec.startswith("edge:"):
            raise ActionError(f"trust must be edge:<id>, got {spec!r}")
        try:
            return self.graph.group_trust(spec[len("edge:"):], group)
        except ValueError as exc:
            raise ActionError(str(exc)) from None

    # -- actions -----------------------------------------------------------

    def run_action(self, index: int, action: ParsedAction) -> str | bytes:
        handler = getattr(self, "_do_" + action.verb.replace("-", "_"))
        return handler(index, action)

    def _do_register_did(self, index: int, action: ParsedAction) -> bytes:
        identity = action.args[0]
        pubkey = self.keystore.pubkey(identity)
        attestation = {name: self._hex(val, f"attribute {name}")
                       for name, val in action.kw.items()}
        payload = register_payload(pubkey, attestation, nonce=index)
        tx = make_tx(self.keystore, identity, TxKind.REGISTER_DID, payload)
        return self._submit(tx)

    def _do_seal(self, index: int, action: ParsedAction) -> str:
        block = self.ledger.seal_block()
        failed = 0
        for tx, (ok, reason) in zip(block.txs, block.status):
            alias = self._creating.pop(tx.tx_id, None)
            if not ok:
                failed += 1
                if alias is not None:
                    # a refused create frees its alias for another create
                    del self.aliases[alias]
                    self._refused[alias] = reason
            elif alias is not None:
                # hold the contract's copy of the eid, not a second one
                self.aliases[alias] = self.otce.records[self.aliases[alias]].eid
        self.metrics["txs_ok"] += len(block.txs) - failed
        self.metrics["txs_failed"] += failed
        return f"sealed h{block.height}:{len(block.txs)}tx"

    def _do_create_otce(self, index: int, action: ParsedAction) -> bytes:
        alias = action.args[0]
        if alias in self.aliases:
            raise ActionError(f"duplicate alias {alias!r}")
        group = sorted(action.kw["group"].split(","))
        delta_t = self._int(action.kw["delta"], "delta")
        components = self._trust_components(action.kw["trust"], group)
        sender = action.kw.get("by", group[0])
        tx = make_tx(self.keystore, sender, TxKind.CREATE_OTCE,
                     create_payload(group, delta_t, components, nonce=index))
        self._submit(tx)
        self._creating[tx.tx_id] = alias
        self._groups[alias] = action.kw["group"]
        self.aliases[alias] = eid_for_tx(tx.tx_id)
        return tx.tx_id

    def _do_lifecycle(self, index: int, action: ParsedAction) -> bytes:
        """`suspend`, `resume` and `terminate`: a tx naming only the sandbox."""
        eid = self._eid(action.args[0])
        kind = _LIFECYCLE_KINDS[action.verb]
        tx = make_tx(self.keystore, action.kw["by"], kind,
                     lifecycle_payload(kind, eid, nonce=index))
        return self._submit(tx)

    _do_suspend = _do_resume = _do_terminate = _do_lifecycle

    def _do_update_plan(self, index: int, action: ParsedAction) -> bytes:
        alias = action.args[0]
        eid = self._eid(alias)
        components = self._trust_components(action.kw["trust"],
                                            self._groups[alias].split(","))
        tx = make_tx(self.keystore, action.kw["by"], TxKind.UPDATE_PLAN,
                     update_plan_payload(eid, components, nonce=index))
        return self._submit(tx)

    def _do_observe(self, index: int, action: ParsedAction) -> str:
        """`edge subject compliant latency`: update the edge's trust now, or
        with `by-oracle=` queue the observation on its edge as that oracle's
        signed record."""
        edge_id, subject, compliant_s, latency_s = action.args
        if compliant_s not in ("0", "1"):
            raise ActionError(f"compliant must be 0 or 1, got {compliant_s!r}")
        try:
            obs = BehaviorObservation(subject, edge_id, compliant_s == "1",
                                      self._int(latency_s, "latency"), observed_at=index)
        except ValueError as exc:
            raise ActionError(str(exc)) from None
        oracle_id = action.kw.get("by-oracle")
        if oracle_id is not None:
            record = make_oracle_record(self.keystore, oracle_id, obs)
            if not self.graph.ingest_oracle_record(record):
                self.metrics["observations_rejected"] += 1
                raise ActionError("oracle record rejected")
            self.metrics["observations_ingested"] += 1
            return f"queued for {edge_id}"
        return self._fold_trust(edge_id, [obs])

    def _do_update_trust(self, index: int, action: ParsedAction) -> str:
        return self._fold_trust(action.args[0])

    def _fold_trust(self, edge_id: str, observations=None) -> str:
        """Fold `observations` (by default the edge's queued oracle records)
        into the edge's trust."""
        try:
            new_trust = self.graph.update_trust(edge_id, observations)
        except ValueError as exc:
            raise ActionError(str(exc)) from None
        self.metrics["trust_updates"] += 1
        return f"trust[{edge_id}]={new_trust!r}"

    def _do_consensus(self, index: int, action: ParsedAction) -> str:
        alias = action.args[0]
        rec = self._running_record(alias)
        value = self._hex(action.kw["value"], "value")
        instance_id = f"{alias}.{index}"
        result = run_instance(rec.plan, rec.group, value, self.keystore,
                              net_cfg=self._net_cfg(index),
                              faults=self._faults_for(rec.group),
                              max_tick=self.scenario.max_ticks, instance_id=instance_id)
        self.consensus_results.append(result)
        self._record_run(index, instance_id, result)
        self.metrics["consensus_runs"] += 1
        self.metrics["consensus_decided"] += 1 if (not result.stalled and result.decisions
                                                   and not result.violations) else 0
        self.metrics["consensus_stalled"] += len(result.stalled)
        self.metrics["consensus_violations"] += len(result.violations)
        self.metrics["consensus_beyond_bound"] += 1 if result.beyond_bound else 0
        if result.violations:
            return "violations: " + ";".join(result.violations)
        if result.stalled:
            return "stalled: " + ",".join(result.stalled)
        values = result.honest_values()
        return f"decided {codec.short(values[0])}" if values else "no honest decisions"

    def _do_run_dag(self, index: int, action: ParsedAction) -> str:
        alias = action.args[0]
        rec = self._running_record(alias)
        path = self.base_dir / action.kw["file"]
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read dag file {path}: {exc}") from None
        try:
            dag, file_chunks = parse_dag(text)
        except ValueError as exc:
            raise ScenarioError(f"dag file {path}: {exc}") from None
        holders: dict[str, dict[str, bytes]] = {}
        for decl in self.scenario.chunks:
            if file_chunks.get(decl.chunk_id, decl.data) != decl.data:
                raise ScenarioError(f"dag file {path}: chunk {decl.chunk_id!r} "
                                    "has other data than the scenario gives it")
            if decl.node in rec.group:
                holders.setdefault(decl.node, {})[decl.chunk_id] = decl.data
        placed = {cid for store in holders.values() for cid in store}
        home = rec.group[0]
        for cid in sorted(dag.chunk_ids - placed):
            holders.setdefault(home, {})[cid] = file_chunks[cid]
        report = execute_collaborative(dag, rec.group, holders, self.keystore,
                                       net_cfg=self._net_cfg(index),
                                       faults=self._faults_for(rec.group),
                                       execution_id=f"{alias}.{index}",
                                       max_tick=self.scenario.max_ticks)
        self.dag_reports[alias] = report
        self._record_run(index, report.execution_id, report)
        self.metrics["dag_runs"] += 1
        self.metrics["dag_completed"] += 1 if report.completed else 0
        self.metrics["dag_failed"] += 0 if report.completed else 1
        if not report.completed:
            return "incomplete: " + ",".join(report.failed_tasks)
        return f"digest {codec.short(report.digest)} sigs={len(report.signers)}"

    def _do_submit_result(self, index: int, action: ParsedAction) -> bytes:
        alias = action.args[0]
        eid = self._eid(alias)
        report = self.dag_reports.get(alias)
        if report is None:
            raise ActionError(f"no dag execution recorded for {alias!r}")
        if not report.completed:
            raise ActionError(f"dag execution for {alias!r} incomplete")
        signers = report.signers
        message = result_message(eid, report.digest)
        sigs = [(node, self.keystore.sign(node, message)) for node in signers]
        tx = make_tx(self.keystore, signers[0], TxKind.SUBMIT_RESULT,
                     submit_result_payload(eid, report.digest, sigs, nonce=index))
        return self._submit(tx)

    # -- whole run ---------------------------------------------------------

    def run(self) -> None:
        for index, action in enumerate(self.scenario.actions):
            try:
                detail = self.run_action(index, action)
            except ActionError as exc:
                detail = str(exc)
                self.failed.add(index)
            self._details.append(detail)

        self.metrics["seed"] = self.scenario.seed
        self.metrics["actions_total"] = len(self._details)
        self.metrics["chain_height"] = self.metrics["blocks_sealed"] = self.ledger.current_height()
        self.metrics["dids_registered"] = len(self.dids.records)
        self.metrics["otces_created"] = len(self.otce.records)
        for rec in self.otce.records.values():
            if rec.cause is not None:
                self.metrics["otces_terminated"] += 1
                self.metrics["terminated_" + rec.cause] += 1

        bad, mismatches, (replay_otce, replay_dids) = audit_chain(
            self.ledger.chain, self.scenario, self.keystore)
        self.chain_ok = bad is None
        self.replay_ok = (self.chain_ok and not mismatches
                          and replay_otce.dump() == self.otce.dump()
                          and replay_dids.dump() == self.dids.dump())
        self.metrics["chain_ok"] = int(self.chain_ok)
        self.metrics["replay_ok"] = int(self.replay_ok)


def run_scenario(scn: Scenario, base_dir: str | Path = ".") -> RunResult:
    """Run `scn`, reading the DAG files its `run-dag` actions name from
    `base_dir`."""
    if scn.max_ticks < 1:
        raise ScenarioError(f"max-ticks must be positive, got {scn.max_ticks}")
    result = RunResult(scn, Path(base_dir))
    result.run()
    return result
