"""The benchmark's traced pass (perfbench/tracer.py) wraps functions and
methods of the package by name, a method through its own class's dict.
Renaming a target, or leaving a method to be inherited, breaks that pass;
this installs the tracer, checks that every target is wrapped, and checks
that uninstalling puts every original back."""

import importlib
import importlib.util
import sys
from pathlib import Path

from otcestack import codec
from otcestack.ledger import TxKind, dump_chain, load_chain, replay_chain
from otcestack.runner import contracts_for, run_scenario
from otcestack.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(mod_name: str, attr: str):
    """What the tracer wraps for `attr` of `mod_name`: a module's function,
    or a method in its class's own dict (None when the class inherits it)."""
    module = importlib.import_module(f"otcestack.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name)).get(meth)
    return getattr(module, attr, None)


def bindings() -> dict:
    """Every name bound in a package module or in one of its classes."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "otcestack" or key.startswith("otcestack."):
            for name, value in vars(module).items():
                out[key, name] = value
                if isinstance(value, type) and value.__module__ == key:
                    for meth, fn in vars(value).items():
                        out[key, f"{name}.{meth}"] = fn
    return out


def test_tracer_wraps_every_target_and_restores_each_original():
    tracer = load_tracer()
    originals = {(m, a): target(m, a) for m, a, _ in tracer.TARGETS}
    missing = [key for key, fn in originals.items() if fn is None]
    assert not missing, f"traced names the package no longer defines: {missing}"
    before = bindings()
    tr = tracer.Tracer()
    try:
        tr.install()
        for key, fn in originals.items():
            wrapped = target(*key)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, key
    finally:
        tr.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_an_audit_decodes_each_record_once_through_codec_unpack(monkeypatch):
    """The tracer counts decodes by wrapping `codec.unpack` by its module
    name. Loading and replaying a chain decode each tx record once and each
    payload once; a decoder that skipped that name would count as none.
    The two scenarios' chains hold a tx of every kind."""
    real = codec.unpack
    seen = []

    def counted(data, *args, **kwargs):
        seen.append(data)
        return real(data, *args, **kwargs)

    kinds = set()
    for name in ("fig4", "plan_switch"):
        scenarios = ROOT / "scenarios"
        scn = parse_scenario((scenarios / f"{name}.scn").read_text())
        result = run_scenario(scn, scenarios)
        text = dump_chain(result.ledger.chain)
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(codec, "unpack", counted)
            chain = load_chain(text)
            assert seen == [tx.wire for block in chain for tx in block.txs]
            seen.clear()
            assert replay_chain(chain, contracts_for(scn, result.keystore)) == []
            assert seen == [tx.payload for block in chain for tx in block.txs]
        kinds.update(tx.kind for block in chain for tx in block.txs)
    assert kinds == set(TxKind)
