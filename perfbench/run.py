"""otcestack benchmark: seeded workloads, run the way a user runs them.

    python3 perfbench/run.py --workload ledger_churn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. For one workload it generates the
inputs from the seed (``workloads.py``), then repeats for ``--seconds``
what a user does: ``otcestack run`` (``parse_scenario``, ``run_scenario``,
``outputs()``), then ``verify-chain`` + ``replay`` on the run's
``chain.dump``. Every repeat is checked, and its outputs digested; all
repeats of one invocation must give the same digest. The shipped
``scenarios/*.scn`` run once as further checks. A failed check counts as
a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off. With ``--trace 1`` it carries the per-layer
metrics of separate traced passes (``tracer.py``). The lines above it
print the figures by name with their units; the full results, raw wall
times included, go to ``.perfbench_out/<workload>.json``.

Times are in reference seconds: wall time scaled by the host's speed,
sampled during the measurement (``timed``).

All three workloads, one after the other:

    for w in ledger_churn consensus_wide dag_collab; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Exit codes: 0 with a result line; 2 when the checkout has no
``src/otcestack`` or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import hmac
import json
import math
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# A measurement shorter than this is taken over a batch of back-to-back
# calls, so millisecond set-ups and audits are not read at timer scale.
MIN_BATCH_S = 0.05
MIN_REPEATS = 3
# Host speed is sampled every PROBE_PERIOD_S during a measurement by a
# probe that takes REF_PROBE_S on the reference host. A 2-core shared x86
# sandbox host measured 0.7 ms in its fast phases and 1.3 ms in its slow ones.
PROBE_PERIOD_S = 0.05
REF_PROBE_S = 0.001
_PROBE_KEY = b"k" * 32


def probe() -> float:
    """Time one run of a fixed stdlib kernel whose mix (HMAC, dict inserts,
    byte and string formatting) resembles the program's."""
    start = time.perf_counter()
    table = {}
    for i in range(300):
        b = i.to_bytes(8, "big")
        table[b] = hmac.new(_PROBE_KEY, b, hashlib.sha256).digest()
        f"{i} {b.hex()}"
    return time.perf_counter() - start


def speed_now() -> float:
    """Host speed relative to the reference host, from a few probes."""
    return REF_PROBE_S / statistics.median(probe() for _ in range(5))


def timed(fn, reps: int = 1):
    """Time `reps` back-to-back calls in reference seconds: (scaled seconds
    per call, raw wall seconds per call, last result).

    The hosts this runs on are shared, and their speed swings by up to 2x
    for seconds to minutes at a time, for every process alike. So a timer
    signal runs `probe` every PROBE_PERIOD_S during the calls; the probes'
    time is taken out of the measurement, and what is left is scaled by the
    mean host speed over the interval."""
    speeds = [speed_now()]
    probing = [0.0]

    def on_alarm(signum, frame):
        took = probe()
        speeds.append(REF_PROBE_S / took)
        probing[0] += took

    gc.collect()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    start = time.perf_counter()
    try:
        for _ in range(reps):
            out = fn()
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    speeds.append(speed_now())
    wall = (end - start - probing[0]) / reps
    return wall * statistics.fmean(speeds), wall, out


class Tally:
    """Operations attempted and the ones that failed, with the check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# Package functions are looked up on their modules at call time, so a
# traced pass goes through the wrappers the tracer installs.

def audit_chain(scn, chain_dump: str):
    """``verify-chain`` + ``replay``: load, verify, replay into fresh registries."""
    from otcestack import did, keys, ledger, otce, plan
    chain = ledger.load_chain(chain_dump)
    ks = keys.KeyStore(scn.seed)
    bad = ledger.verify_chain(chain, ks)
    registry = otce.OTCERegistry(ks, plan.PlanMapping((tuple(scn.weights),), scn.tau))
    dids = did.DIDRegistry(did.AttestationPolicy(scn.policy) if scn.policy else None)
    mismatches = ledger.replay_chain(chain, [registry, dids])
    return bad, mismatches, registry.dump(), dids.dump()


def run_user(scn, base_dir: Path):
    """``otcestack run`` without the file writes: run, then render outputs."""
    from otcestack import runner
    result = runner.run_scenario(scn, base_dir)
    return result, result.outputs()


def digest_of(outputs: dict[str, str], audit) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(f"{name}\n{len(outputs[name])}\n".encode())
        h.update(outputs[name].encode())
    h.update(repr(audit).encode())
    return h.hexdigest()


class Bench:
    """One workload's generated inputs, written where the scenario's
    ``run-dag`` action reads its DAG file."""

    def __init__(self, workload, work_dir: Path):
        self.w = workload
        self.dir = work_dir
        self.scn_path = work_dir / "workload.scn"
        self.scn_path.write_text(workload.scenario)
        self.dag_path = None
        self.tasks = sum(1 for line in (workload.dag or "").splitlines()
                         if line.startswith("task "))
        if workload.dag is not None:
            self.dag_path = work_dir / workload.dag_file
            self.dag_path.write_text(workload.dag)

    def setup(self):
        """Read and parse the inputs: the scenario, and the DAG if any."""
        from otcestack import bvm, scenario
        scn = scenario.parse_scenario(self.scn_path.read_text())
        if self.dag_path is not None:
            bvm.parse_dag(self.dag_path.read_text())
        return scn

    def oracle(self, scn):
        """sequential_oracle on the DAG and the chunk data the scenario places."""
        if self.dag_path is None:
            return None
        from otcestack import bvm
        dag, chunks = bvm.parse_dag(self.dag_path.read_text())
        chunks.update({c.chunk_id: c.data for c in scn.chunks})
        return bvm.sequential_oracle(dag, chunks)

    def check(self, tally: Tally, result, audit, oracle) -> None:
        """The correctness checks of one run; each is an operation."""
        for o in result.outcomes:
            tally.check(o.ok, f"action {o.index} ({o.verb}) refused: {o.detail}")
        tally.check(result.chain_ok, "run self-check: chain_ok=0")
        tally.check(result.replay_ok, "run self-check: replay_ok=0")
        bad, mismatches, otce_dump, did_dump = audit
        tally.check(bad is None, f"audit: verify_chain reports bad height {bad}")
        tally.check(not mismatches and otce_dump == result.otce.dump()
                    and did_dump == result.dids.dump(),
                    f"audit: replay diverged ({len(mismatches)} mismatches)")
        for inst in result.consensus_results:
            if not inst.beyond_bound:
                tally.check(bool(inst.decisions) and not inst.stalled and not inst.violations,
                            f"consensus {inst.instance_id}: stalled={list(inst.stalled)} "
                            f"violations={list(inst.violations)}")
        for alias, report in sorted(result.dag_reports.items()):
            tally.check(report.completed, f"dag {alias}: incomplete {report.failed_tasks[:5]}")
            tally.check(report.values == oracle, f"dag {alias}: values differ from oracle")

    def sizes(self, result) -> dict[str, int]:
        return {"actions": len(result.outcomes),
                "transactions": sum(len(b.txs) for b in result.ledger.chain),
                "blocks": result.ledger.current_height(),
                "messages": result.metrics["net_sent"],
                "instances": len(result.consensus_results),
                "tasks": self.tasks}


def shipped_scenarios(tally: Tally) -> dict[str, str]:
    """Run each scenarios/*.scn once, checked; their digests by file name."""
    from otcestack import scenario
    digests = {}
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        scn = scenario.parse_scenario(path.read_text())
        result, outputs = run_user(scn, path.parent)
        audit = audit_chain(scn, outputs["chain.dump"])
        tally.check(result.chain_ok and result.replay_ok,
                    f"{path.name}: chain_ok={int(result.chain_ok)} "
                    f"replay_ok={int(result.replay_ok)}")
        tally.check(audit[0] is None and not audit[1], f"{path.name}: audit failed")
        digests[path.name] = digest_of(outputs, audit)
    return digests


# -- the two kinds of invocation -----------------------------------------------

def measure_end_to_end(bench: Bench, seconds: float, tally: Tally) -> dict:
    """Timed repeats with tracing off, then one untimed tracemalloc pass."""
    scn = bench.setup()
    oracle = bench.oracle(scn)
    setup_reps, audit_reps = batch(timed(bench.setup)[1]), None
    scaled: dict[str, list[float]] = {"setup_s": [], "run_s": [], "audit_s": []}
    raw: dict[str, list[float]] = {k: [] for k in scaled}
    digests: list[str] = []
    sizes = None
    start = time.perf_counter()
    while True:
        s, r, scn = timed(bench.setup, setup_reps)
        scaled["setup_s"].append(s)
        raw["setup_s"].append(r)
        s, r, (result, outputs) = timed(lambda: run_user(scn, bench.dir))
        scaled["run_s"].append(s)
        raw["run_s"].append(r)
        do_audit = lambda: audit_chain(scn, outputs["chain.dump"])  # noqa: E731
        audit_reps = audit_reps or batch(timed(do_audit)[1])
        s, r, audit = timed(do_audit, audit_reps)
        scaled["audit_s"].append(s)
        raw["audit_s"].append(r)
        bench.check(tally, result, audit, oracle)
        digests.append(digest_of(outputs, audit))
        tally.check(digests[-1] == digests[0],
                    f"repeat {len(digests)}: output digest differs from repeat 1")
        sizes = sizes or bench.sizes(result)
        del result, outputs, audit
        elapsed = time.perf_counter() - start
        # stop before a repeat that would end past the deadline
        if len(digests) >= MIN_REPEATS and elapsed * (1 + 1 / len(digests)) > seconds:
            break

    gc.collect()
    tracemalloc.start()
    try:
        result, outputs = run_user(scn, bench.dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.check(digest_of(outputs, audit_chain(scn, outputs["chain.dump"])) == digests[0],
                "tracemalloc pass: output digest differs from repeat 1")
    metrics = {name: statistics.median(vals) for name, vals in scaled.items()}
    metrics["peak_mem_mb"] = peak / 2**20
    metrics["ok_frac"] = 1.0 - len(tally.failures) / tally.attempted
    return {"repeats": len(digests), "digest": digests[0], "sizes": sizes,
            "metrics": metrics, "scaled_samples": scaled, "raw_samples": raw,
            "raw_median": {k: statistics.median(v) for k, v in raw.items()}}


def measure_per_layer(bench: Bench, seconds: float, tally: Tally) -> dict:
    """Untraced runs interleaved with traced passes; medians of each."""
    import tracer as tracing
    scn = bench.setup()
    oracle = bench.oracle(scn)
    plain_run_s: list[float] = []
    samples: dict[str, list[float]] = {}
    digests: list[str] = []
    sizes = tr = None
    start = time.perf_counter()
    while True:
        s, _, (result, outputs) = timed(lambda: run_user(scn, bench.dir))
        plain_run_s.append(s)
        digests.append(digest_of(outputs, audit_chain(scn, outputs["chain.dump"])))
        del result, outputs

        # Probe signals would land inside spans, so the traced pass is
        # scaled by the host speed just before and just after it.
        tr = tracing.Tracer()
        speed = speed_now()
        gc.collect()
        tr.install()
        try:
            traced_scn = bench.setup()
            result, outputs = run_user(traced_scn, bench.dir)
            audit = audit_chain(traced_scn, outputs["chain.dump"])
        finally:
            tr.uninstall()
        speed = (speed + speed_now()) / 2
        bench.check(tally, result, audit, oracle)
        digests.append(digest_of(outputs, audit))
        tally.check(len(set(digests)) == 1, "traced pass: output digest differs")
        layer = tracing.summarize(tr, speed)
        layer.update(simulated_metrics(bench, result, tr, layer))
        tally.check(abs(layer["trace.accounted_frac"] - 1.0) <= 0.05,
                    f"traced pass: spans account for {layer['trace.accounted_frac']:.3f} "
                    "of the traced run")
        for key, value in layer.items():
            samples.setdefault(key, []).append(value)
        sizes = sizes or bench.sizes(result)
        del result, outputs, audit
        passes = len(plain_run_s)
        if (time.perf_counter() - start) * (1 + 1 / passes) > seconds:
            break
    tr.write_spans(OUT_DIR / f"{bench.w.name}.spans.tsv")
    metrics = {key: statistics.median(vals) for key, vals in samples.items()}
    metrics["trace_overhead_frac"] = (metrics["trace.run_s"]
                                      / statistics.median(plain_run_s) - 1.0)
    return {"passes": passes, "digest": digests[0], "sizes": sizes, "metrics": metrics}


def simulated_metrics(bench: Bench, result, tr, layer: dict) -> dict[str, float]:
    """What the run reports about itself; deterministic for one input."""
    from otcestack.bvm import TaskExecutor
    from otcestack.otce import OTCERegistry, OTCEState
    from tracer import ratio
    m: dict[str, float] = {}
    otce_txs = sum(1 for b in result.ledger.chain for tx in b.txs
                   if tx.kind in OTCERegistry.KINDS)
    m["otce.decode_per_tx"] = ratio(layer["otce.decode_payload.calls"], otce_txs)
    live = peak = 0
    for _, old, new, _, _ in result.otce.transitions:
        live += (old is OTCEState.NEW) - (new is OTCEState.TERMINATED)
        peak = max(peak, live)
    m["otce.live_max"] = peak

    insts = result.consensus_results
    decided = [i for i in insts if any(n in i.honest for n in i.decisions)]
    sent = sum(i.sent for i in insts)
    ticks = [max(d.decided_at for n, d in i.decisions.items() if n in i.honest)
             for i in decided]
    m["consensus.msgs_per_decision"] = ratio(sent, len(decided))
    m["consensus.decide_ticks_p50"] = statistics.median(ticks) if ticks else 0
    m["consensus.decide_ticks_max"] = max(ticks, default=0)
    # views past 0 (byzantine) and proposer rounds past 1 (majority)
    m["consensus.view_changes"] = sum(
        max(d.view for d in i.decisions.values()) - (i.protocol.value == "paxos")
        for i in decided)
    m["consensus.drop_frac"] = ratio(sum(i.dropped for i in insts), sent)
    owners = list(tr.handler_owners.values())
    m["consensus.replica_drops"] = sum(o.dropped for o in owners
                                       if not isinstance(o, TaskExecutor))
    m["bvm.rejected"] = sum(o.rejected for o in owners if isinstance(o, TaskExecutor))
    reports = list(result.dag_reports.values())
    m["bvm.reassigned"] = sum(len(r.reassigned) for r in reports)
    m["bvm.ticks"] = sum(r.ticks for r in reports)
    m["bvm.msgs_per_task"] = ratio(sum(r.sent for r in reports),
                                   bench.tasks)
    m["simnet.delivered"] = result.metrics["net_delivered"]
    m["simnet.dropped"] = result.metrics["net_dropped"]
    return m


def batch(seconds: float) -> int:
    return max(1, math.ceil(MIN_BATCH_S / max(seconds, 1e-9)))


# -- entry point -----------------------------------------------------------------

def save_results(workload: str, section: str, payload: dict) -> None:
    path = OUT_DIR / f"{workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "otcestack" / "__init__.py").is_file():
        print(f"error: no otcestack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    work = WORK_DIR / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    try:
        scenario_digests = shipped_scenarios(tally)
        bench = Bench(workloads.GENERATORS[args.workload](args.seed), work)
        measure = measure_per_layer if args.trace else measure_end_to_end
        report = measure(bench, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = report["metrics"]
    report.update(seed=args.seed, scenario_digests=scenario_digests,
                  attempted=tally.attempted, failures=tally.failures)
    save_results(args.workload, section, report)

    print(f"workload {args.workload} seed {args.seed}: output digest {report['digest']}"
          + ("" if any("digest" in f for f in tally.failures) else ", same on every run"))
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in report["sizes"].items()))
    for name, value in sorted(scenario_digests.items()):
        print(f"scenario {name}: digest {value}")
    for name in units:
        raw = report.get("raw_median", {}).get(name)
        note = f"  (raw wall median {raw:.6g} s)" if raw is not None else ""
        print(f"{name:<40} {metrics[name]:.6g} {units[name]}{note}")
    print(f"{'fail_frac':<40} {len(tally.failures) / tally.attempted:.6g} frac "
          f"(of {tally.attempted} operations)")
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
