"""Each ledger record is built once from its bytes, and each plan derived
once per registry, with the same results as building and deriving afresh.

The references are the plain paths: the `Transaction` constructor, which
packs all five fields, and an unmemoised `map_trust_to_plan` call. The
inputs are every tx of the shipped scenarios and of the benchmark's
`ledger_churn` workload at seed 1, and copies with one field changed.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from otcestack import codec, otce
from otcestack.keys import KeyStore
from otcestack.ledger import (Ledger, Transaction, TxKind, decode_tx,
                              dump_chain, load_chain, make_tx)
from otcestack.otce import OTCERegistry
from otcestack.plan import (PlanInfeasibleError, PlanMapping, map_trust_to_plan,
                            trust_vector)
from otcestack.runner import audit_chain, run_scenario
from otcestack.scenario import parse_scenario

from conftest import rebuilt_tx

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("fig4", "plan_switch", "beyond_bound")


def _ledger_churn_text(seed: int) -> str:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.ledger_churn(seed).scenario


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (parsed scenario, its run), for the shipped scenarios and
    `ledger_churn` seed 1."""
    out = {}
    for name in SCENARIOS:
        path = ROOT / "scenarios" / f"{name}.scn"
        scn = parse_scenario(path.read_text())
        out[name] = scn, run_scenario(scn, base_dir=path.parent)
    scn = parse_scenario(_ledger_churn_text(1))
    out["ledger_churn"] = scn, run_scenario(scn, base_dir=tmp_path_factory.mktemp("churn"))
    return out


@pytest.fixture(scope="module")
def wires(runs):
    """The wire of every committed tx, as the dump holds it."""
    got = []
    for _, res in runs.values():
        for block in load_chain(dump_chain(res.ledger.chain)):
            got.extend(tx.wire for tx in block.txs)
    assert len(got) > 8000
    return got


def _flip(data: bytes, i: int = 0) -> bytes:
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def _variants(wire: bytes):
    """`wire`, then canonical copies with a payload, sender or tx-id byte
    flipped."""
    kind, payload, sender, signature, tx_id = codec.unpack(wire)
    yield wire
    if payload:
        yield codec.pack(kind, _flip(payload, len(payload) // 2), sender, signature, tx_id)
    yield codec.pack(kind, payload, chr(ord(sender[0]) ^ 1) + sender[1:], signature, tx_id)
    yield codec.pack(kind, payload, sender, signature, _flip(tx_id, len(tx_id) - 1))


def _same_tx(got: Transaction, want: Transaction) -> None:
    assert got == want
    assert got.wire == want.wire
    assert got.id_ok is want.id_ok


def test_decoded_tx_equals_the_constructed_one_and_keeps_its_bytes(wires):
    refused = 0
    for wire in wires:
        for w in _variants(wire):
            tx = decode_tx(w)
            _same_tx(tx, Transaction(tx.kind, tx.payload, tx.sender, tx.signature, tx.tx_id))
            assert tx.wire is w
            assert tx.id_ok is (w == wire)
            refused += not tx.id_ok
    assert refused >= 2 * len(wires)


def test_make_tx_equals_the_constructor_and_rebuilds_the_committed_tx(runs):
    for scn, res in runs.values():
        ks = KeyStore(scn.seed)
        for block in res.ledger.chain:
            for committed in block.txs:
                tx = make_tx(ks, committed.sender, committed.kind, committed.payload)
                _same_tx(tx, Transaction(tx.kind, tx.payload, tx.sender,
                                         tx.signature, tx.tx_id))
                _same_tx(tx, committed)
                assert tx.id_ok


@pytest.mark.parametrize("build", ["make_tx", "decode_tx"])
def test_replace_repacks_the_head(build):
    tx = make_tx(KeyStore(3), "alice", TxKind.CREATE_OTCE, b"payload")
    if build == "decode_tx":
        tx = decode_tx(tx.wire)
    assert tx.id_ok
    for changes in ({"payload": b"payloae"}, {"sender": "alicf"},
                    {"kind": TxKind.SUSPEND_OTCE}):
        forged = rebuilt_tx(tx, **changes)
        assert not forged.id_ok
        assert forged.wire == codec.pack(int(forged.kind), forged.payload,
                                         forged.sender, forged.signature, forged.tx_id)


# -- plans -----------------------------------------------------------------

def _reference_plan(mapping, components, n):
    """The plan and the status a tx that gets it commits."""
    try:
        plan = map_trust_to_plan(mapping, trust_vector(components), n)
    except PlanInfeasibleError:
        return None, (False, "plan-infeasible")
    except ValueError:
        return None, (False, "bad-trust-vector")
    return plan, (True, plan.protocol.value)


@pytest.fixture()
def derivations(monkeypatch):
    """The trust vectors the contract builds: one per plan it derives,
    refused or not."""
    calls = []

    def counted(values):
        calls.append(values)
        return trust_vector(values)

    monkeypatch.setattr(otce, "trust_vector", counted)
    return calls


def test_memoised_plan_equals_the_rule_for_every_pair_of_the_workload(runs, derivations):
    scn, res = runs["ledger_churn"]
    pairs = list(res.otce._plans)
    assert len(pairs) > 100
    reg = OTCERegistry(KeyStore(scn.seed), res.otce.mapping)
    for _ in range(2):
        for components, n in pairs:
            assert reg._plan(components, n) == _reference_plan(reg.mapping, components, n)
    # the registry derived each pair once
    assert len(derivations) == len(pairs)


@pytest.mark.parametrize("components, n, reason", [
    ((0.5,), 3, "plan-infeasible"),            # PBFT needs a group of 4
    ((1.5,), 4, "bad-trust-vector"),
    ((math.nan,), 4, "bad-trust-vector"),
    ((0.9, 0.9), 4, "bad-trust-vector"),       # wider than the mapping
])
def test_memoised_refusal_equals_the_rule(components, n, reason, derivations):
    # only what `map_trust_to_plan` rules on is kept: a vector that is no
    # trust vector is refused afresh each time
    try:
        trust_vector(components)
        kept = True
    except ValueError:
        kept = False
    reg = OTCERegistry(KeyStore(1), PlanMapping())
    for _ in range(3):
        assert reg._plan(components, n) == (None, (False, reason))
        assert reg._plan(components, n) == _reference_plan(reg.mapping, components, n)
    assert reg._plans == ({(components, n): (None, (False, reason))} if kept else {})
    assert len(derivations) == (1 if kept else 6)


def test_nan_creates_are_refused_without_memo_entries():
    ks = KeyStore(1)
    reg = OTCERegistry(ks, PlanMapping())
    ledger = Ledger(ks)
    ledger.register_contract(reg)
    for nonce in range(3):
        payload = otce.create_payload("abcd", 5, [math.nan], nonce)
        assert ledger.submit_tx(make_tx(ks, "a", TxKind.CREATE_OTCE, payload)) == (True, "ok")
    block = ledger.seal_block()
    assert block.status == ((False, "bad-trust-vector"),) * 3
    assert reg._plans == {}


def test_replay_registry_starts_empty_and_derives_its_own_plans(runs, derivations):
    scn, res = runs["ledger_churn"]
    assert OTCERegistry(res.keystore, res.otce.mapping)._plans == {}
    bad, mismatches, (registry, _) = audit_chain(res.ledger.chain, scn, res.keystore)
    assert bad is None and mismatches == []
    assert registry is not res.otce and registry._plans is not res.otce._plans
    assert registry._plans == res.otce._plans
    assert len(derivations) == len(registry._plans)


def test_make_tx_hashes_its_head_once(monkeypatch):
    hashed = []
    real = codec.sha
    monkeypatch.setattr(codec, "sha", lambda data: hashed.append(data) or real(data))
    tx = make_tx(KeyStore(3), "alice", TxKind.CREATE_OTCE, b"payload")
    assert hashed == [codec.pack(int(tx.kind), tx.payload, tx.sender)]
    assert tx.id_ok and hashed[0] + codec.pack(tx.signature, tx.tx_id) == tx.wire
    # a decoded tx still checks its id against its head
    assert decode_tx(tx.wire).id_ok and len(hashed) == 2
    assert not decode_tx(codec.pack(*codec.unpack(tx.wire)[:4], bytes(32))).id_ok
