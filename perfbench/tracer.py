"""Span tracing for the benchmark's traced pass, done from outside the package.

``Tracer.install`` replaces the functions and methods named in ``TARGETS``
with timing wrappers, in every ``otcestack`` module that binds them (so
the copies ``runner`` takes with ``from ... import ...`` are traced too),
and ``uninstall`` puts the originals back. Each call records a span:
name, start, end and the index of its parent span. Spans stay in memory;
``write_spans`` saves them once the pass is over, and ``summarize`` turns
them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter

# (module, attribute path, span name). Span names are <layer>.<function>.
TARGETS = (
    ("ledger", "Ledger.submit_tx", "ledger.submit_tx"),
    ("ledger", "Ledger.seal_block", "ledger.seal_block"),
    ("ledger", "verify_chain", "ledger.verify_chain"),
    ("ledger", "replay_chain", "ledger.replay_chain"),
    ("ledger", "dump_chain", "ledger.dump_chain"),
    ("ledger", "load_chain", "ledger.load_chain"),
    ("otce", "OTCERegistry.apply", "otce.apply"),
    ("otce", "OTCERegistry.decode_payload", "otce.decode_payload"),
    ("otce", "OTCERegistry.on_block_end", "otce.on_block_end"),
    ("did", "DIDRegistry.apply", "did.apply"),
    ("hypergraph", "TrustHypergraph.update_trust", "hypergraph.update_trust"),
    ("hypergraph", "TrustHypergraph.ingest_oracle_record", "hypergraph.ingest_oracle_record"),
    ("plan", "map_trust_to_plan", "plan.map_trust_to_plan"),
    ("codec", "pack", "codec.pack"),
    ("codec", "unpack", "codec.unpack"),
    ("codec", "short", "codec.short"),
    ("keys", "KeyStore.sign", "keys.sign"),
    ("keys", "KeyStore.verify", "keys.verify"),
    ("simnet", "Network.run_until", "simnet.run_until"),
    ("simnet", "Network.send", "simnet.send"),
    ("consensus", "run_instance", "consensus.run_instance"),
    ("consensus", "PBFTReplica.step", "consensus.pbft.step"),
    ("consensus", "PaxosReplica.step", "consensus.paxos.step"),
    ("consensus", "verify_msg", "consensus.verify_msg"),
    ("consensus", "encode_msg", "consensus.encode_msg"),
    ("bvm", "execute_collaborative", "bvm.execute_collaborative"),
    ("bvm", "TaskExecutor.step", "bvm.step"),
    ("bvm", "topo_layers", "bvm.topo_layers"),
    ("bvm", "eval_op", "bvm.eval_op"),
    ("bvm", "parse_dag", "bvm.parse_dag"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("runner", "run_scenario", "runner.run_scenario"),
    ("runner", "RunResult.outputs", "runner.outputs"),
)
RUN_ROOTS = ("runner.run_scenario", "runner.outputs")
SELFCHECK = ("ledger.verify_chain", "ledger.replay_chain")
HANDLERS = ("consensus.pbft.step", "consensus.paxos.step", "bvm.step")
LAYERS = ("ledger", "otce", "did", "hypergraph", "plan", "codec", "keys",
          "simnet", "consensus", "bvm", "scenario", "runner")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent]
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.unpack_inputs: list[int] = []     # hash of each unpacked input
        self.unpack_bytes = 0
        self.verify_inputs: list[int] = []
        self.event_kinds: Counter = Counter()
        self.handler_owners: dict[int, object] = {}   # replicas and executors
        self.sealed_txs = 0
        self.instances: dict[int, tuple[int, int]] = {}   # span -> (n, messages)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self) -> dict:
        def unpack(idx, args, result):
            self.unpack_inputs.append(hash(args[0]))
            self.unpack_bytes += len(args[0])

        def verify(idx, args, result):
            self.verify_inputs.append(hash(args[1:]))

        def handler(idx, args, result):
            self.event_kinds[args[1].kind] += 1
            self.handler_owners[id(args[0])] = args[0]

        def seal(idx, args, result):
            self.sealed_txs += len(result.txs)

        def instance(idx, args, result):
            self.instances[idx] = (len(result.members), result.sent)

        hooks = {"codec.unpack": unpack, "keys.verify": verify,
                 "ledger.seal_block": seal, "consensus.run_instance": instance}
        hooks.update({h: handler for h in HANDLERS})
        return hooks

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "otcestack" or key.startswith("otcestack.")]
        hooks = self._hooks()
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(f"otcestack.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(mod, attr)
            traced = self._wrap(name, original, hooks.get(name))
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, traced)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def summarize(tr: Tracer, scale: float) -> dict:
    """Per-function calls, inclusive and self seconds, per-layer self
    seconds, and the share of the traced run its spans account for.
    Durations are multiplied by `scale` (see ``run.timed``)."""
    dur = [(end - start) * scale for _, start, end, _ in tr.spans]
    own = list(dur)
    for i, (_, _, _, parent) in enumerate(tr.spans):
        if parent >= 0:
            own[parent] -= dur[i]
    calls: Counter = Counter()
    incl: Counter = Counter()
    selfs: Counter = Counter()
    seals: list[float] = []
    in_run = [False] * len(tr.spans)
    run_s = run_self = selfcheck = 0.0
    for i, (name, _, _, parent) in enumerate(tr.spans):
        calls[name] += 1
        incl[name] += dur[i]
        selfs[name] += own[i]
        if name == "ledger.seal_block":
            seals.append(dur[i])
        if parent < 0:
            in_run[i] = name in RUN_ROOTS
            run_s += dur[i] if in_run[i] else 0.0
        else:
            in_run[i] = in_run[parent]
            if name in SELFCHECK and tr.spans[parent][0] == "runner.run_scenario":
                selfcheck += dur[i]
        if in_run[i]:
            run_self += own[i]
    m: dict[str, float] = {}
    for name in (t[2] for t in TARGETS):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = incl[name]
        m[f"{name}.self_s"] = selfs[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                   if k.split(".", 1)[0] == layer)
    m["ledger.seal_block.s_p50"] = statistics.median(seals) if seals else 0.0
    m["ledger.seal_block.s_p95"] = (statistics.quantiles(seals, n=20)[-1]
                                    if len(seals) >= 2 else m["ledger.seal_block.s_p50"])
    m["ledger.seal_block.s_per_tx"] = ratio(incl["ledger.seal_block"], tr.sealed_txs)
    m["codec.unpack.bytes"] = tr.unpack_bytes
    m["codec.unpack.distinct_frac"] = ratio(len(set(tr.unpack_inputs)),
                                            len(tr.unpack_inputs))
    m["keys.verify.distinct_frac"] = ratio(len(set(tr.verify_inputs)),
                                           len(tr.verify_inputs))
    by_n: Counter = Counter()
    for idx, (n, _) in tr.instances.items():
        by_n[n] += dur[idx]
    for n in (4, 16, 31, 64):
        m[f"consensus.run_instance.s.n{n}"] = by_n[n]
    m["consensus.s_per_msg"] = ratio(incl["consensus.run_instance"],
                                     sum(sent for _, sent in tr.instances.values()))
    m["simnet.events"] = sum(tr.event_kinds.values())
    m["simnet.timers"] = tr.event_kinds["timer"]
    m["simnet.events_per_s"] = ratio(m["simnet.events"], incl["simnet.run_until"])
    m["runner.self_s"] = selfs["runner.run_scenario"]
    m["runner.selfcheck.s"] = selfcheck
    m["trace.run_s"] = run_s
    m["trace.accounted_frac"] = ratio(run_self, run_s)
    return m


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
