import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from otcestack import codec
from otcestack.keys import KeyStore
from otcestack.ledger import (SYSTEM_SENDER, ZERO_HASH, Block, Ledger, TxKind,
                              block_hash, decode_tx, dump_chain,
                              load_chain, make_genesis, make_tx, replay_chain,
                              verify_chain)
from otcestack.runner import run_scenario
from otcestack.scenario import parse_scenario

from conftest import rebuilt_tx

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class CounterContract:
    """Toy contract: signed increments, refuses negatives, sweeps on block end."""

    KINDS = frozenset({TxKind.REGISTER_DID, TxKind.TERMINATE_OTCE})

    def __init__(self, keystore, sweep_every=0):
        self.keystore = keystore
        self.sweep_every = sweep_every
        self.counts: dict[str, int] = {}
        self.marks: list[int] = []

    def decode_payload(self, kind, payload):
        fields = codec.unpack(payload)
        if kind == TxKind.TERMINATE_OTCE:
            if len(fields) != 2 or fields[0] != "mark":
                raise codec.CodecError("bad marker")
            return fields
        if len(fields) != 4 or fields[0] != "ctr":
            raise codec.CodecError("bad counter payload")
        return fields

    def apply(self, tx, fields, height):
        if tx.kind == TxKind.TERMINATE_OTCE:
            self.marks.append(fields[1])
            return True, "ok"
        _, name, delta, _nonce = fields
        if delta < 0:
            return False, "negative"
        self.counts[name] = self.counts.get(name, 0) + delta
        return True, "ok"

    def on_block_end(self, height):
        if self.sweep_every and height % self.sweep_every == 0:
            return [make_tx(self.keystore, SYSTEM_SENDER, TxKind.TERMINATE_OTCE,
                            codec.pack("mark", height))]
        return []


class CountingContract(CounterContract):
    """CounterContract that logs every payload it decodes and every tx it applies."""

    def __init__(self, keystore, sweep_every=0):
        super().__init__(keystore, sweep_every)
        self.decoded: list[bytes] = []
        self.applied: list[bytes] = []

    def decode_payload(self, kind, payload):
        self.decoded.append(payload)
        return super().decode_payload(kind, payload)

    def apply(self, tx, fields, height):
        self.applied.append(tx.tx_id)
        return super().apply(tx, fields, height)


def fresh(sweep_every=0, contract_cls=CounterContract):
    ks = KeyStore(7)
    ledger = Ledger(ks)
    contract = contract_cls(ks, sweep_every)
    ledger.register_contract(contract)
    return ks, ledger, contract


def ctr_tx(ks, sender, name, delta, nonce):
    return make_tx(ks, sender, TxKind.REGISTER_DID,
                   codec.pack("ctr", name, delta, nonce))


# -- basics ----------------------------------------------------------------

def test_genesis_shape():
    g = make_genesis()
    assert g.height == 0
    assert g.prev_hash == ZERO_HASH
    assert g.txs == () and g.status == ()
    assert g.hash == block_hash(0, ZERO_HASH, (), ())


def test_empty_blocks_advance_height():
    _, ledger, _ = fresh()
    for want in (1, 2, 3):
        block = ledger.seal_block()
        assert block.height == want
        assert ledger.current_height() == want
    assert verify_chain(ledger.chain) is None


def test_tx_encode_decode_round_trip():
    ks = KeyStore(7)
    tx = ctr_tx(ks, "alice", "x", 3, 0)
    assert decode_tx(tx.wire) == tx


def test_decode_tx_rejects_garbage():
    ks = KeyStore(7)
    tx = ctr_tx(ks, "alice", "x", 3, 0)
    with pytest.raises(codec.CodecError):
        decode_tx(codec.pack(1, b"p", "s"))                      # short
    with pytest.raises(codec.CodecError):
        decode_tx(codec.pack(99, tx.payload, "s", b"x", b"y"))   # unknown kind
    with pytest.raises(codec.CodecError):
        decode_tx(codec.pack(1, "notbytes", "s", b"x", b"y"))


def test_tx_id_binds_kind_payload_sender():
    ks = KeyStore(7)
    base = make_tx(ks, "alice", TxKind.REGISTER_DID, b"p").tx_id
    assert base == codec.digest(int(TxKind.REGISTER_DID), b"p", "alice")
    assert make_tx(ks, "alice", TxKind.SUSPEND_OTCE, b"p").tx_id != base
    assert make_tx(ks, "alice", TxKind.REGISTER_DID, b"q").tx_id != base
    assert make_tx(ks, "bob", TxKind.REGISTER_DID, b"p").tx_id != base


# -- admission -------------------------------------------------------------

def test_submit_accepts_well_formed():
    ks, ledger, _ = fresh()
    assert ledger.submit_tx(ctr_tx(ks, "alice", "x", 1, 0)) == (True, "ok")


def test_submit_rejects_bad_tx_id():
    ks, ledger, _ = fresh()
    tx = ctr_tx(ks, "alice", "x", 1, 0)
    assert ledger.submit_tx(rebuilt_tx(tx, payload=tx.payload + b"!")) == (False, "bad-tx-id")


def test_submit_rejects_bad_signature():
    ks, ledger, _ = fresh()
    tx = ctr_tx(ks, "alice", "x", 1, 0)
    bad = rebuilt_tx(tx, signature=bytes(b ^ 1 for b in tx.signature))
    assert ledger.submit_tx(bad) == (False, "bad-signature")


def flip_first_bit(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


@pytest.mark.parametrize("field, change, reason", [
    ("kind", lambda kind: TxKind.SUSPEND_OTCE, "bad-tx-id"),
    ("payload", lambda payload: payload + b"!", "bad-tx-id"),
    ("sender", lambda sender: sender + "x", "bad-tx-id"),
    ("signature", flip_first_bit, "bad-signature"),
    ("tx_id", flip_first_bit, "bad-tx-id"),
])
def test_replaced_tx_field_is_refused_at_admission_and_by_verify(field, change, reason):
    # the constructor rebuilds the tx's encoding and id check, so a changed
    # field can neither keep the old id check nor reach the chain's hashes
    ks, ledger, _ = fresh()
    tx = ctr_tx(ks, "alice", "x", 1, 0)
    bad = rebuilt_tx(tx, **{field: change(getattr(tx, field))})
    assert bad.wire == codec.pack(int(bad.kind), bad.payload, bad.sender,
                                  bad.signature, bad.tx_id)
    assert bad.id_ok is (field == "signature")
    assert ledger.submit_tx(bad) == (False, reason)
    # the block hash covers the changed tx, so only the tx's own checks can fail
    genesis = make_genesis()
    status = ((True, "ok"),)
    block = Block(1, genesis.hash, (bad,), status,
                  block_hash(1, genesis.hash, (bad,), status))
    assert verify_chain([genesis, block], ks) == 1
    assert verify_chain([genesis, block]) == (None if field == "signature" else 1)


def test_submit_rejects_unhandled_kind():
    ks, ledger, _ = fresh()
    tx = make_tx(ks, "alice", TxKind.CREATE_OTCE, codec.pack("ctr", "x", 1, 0))
    assert ledger.submit_tx(tx) == (False, "no-contract")


def test_submit_rejects_malformed_payload():
    ks, ledger, _ = fresh()
    tx = make_tx(ks, "alice", TxKind.REGISTER_DID, codec.pack("wrong", 1))
    assert ledger.submit_tx(tx) == (False, "malformed-payload")


def test_duplicate_rejected_forever():
    ks, ledger, _ = fresh()
    tx = ctr_tx(ks, "alice", "x", 1, 0)
    assert ledger.submit_tx(tx) == (True, "ok")
    assert ledger.submit_tx(tx) == (False, "duplicate")
    ledger.seal_block()
    assert ledger.submit_tx(tx) == (False, "duplicate")
    for _ in range(5):
        ledger.seal_block()
    assert ledger.submit_tx(tx) == (False, "duplicate")


# -- sealing ---------------------------------------------------------------

def test_refused_tx_still_committed():
    ks, ledger, contract = fresh()
    ledger.submit_tx(ctr_tx(ks, "alice", "x", 2, 0))
    ledger.submit_tx(ctr_tx(ks, "alice", "x", -5, 1))
    block = ledger.seal_block()
    assert [ok for ok, _ in block.status] == [True, False]
    assert block.status[1][1] == "negative"
    assert contract.counts == {"x": 2}
    assert verify_chain(ledger.chain, ks) is None


def test_block_end_markers_are_committed():
    ks, ledger, contract = fresh(sweep_every=2)
    ledger.submit_tx(ctr_tx(ks, "alice", "x", 1, 0))
    b1 = ledger.seal_block()
    b2 = ledger.seal_block()
    assert all(tx.kind != TxKind.TERMINATE_OTCE for tx in b1.txs)
    assert [tx.kind for tx in b2.txs] == [TxKind.TERMINATE_OTCE]
    assert b2.txs[0].sender == SYSTEM_SENDER
    assert contract.marks == [2]
    assert verify_chain(ledger.chain, ks) is None


def test_mempool_drains_on_seal():
    ks, ledger, _ = fresh()
    ledger.submit_tx(ctr_tx(ks, "alice", "x", 1, 0))
    assert len(ledger.seal_block().txs) == 1
    assert len(ledger.seal_block().txs) == 0


# -- decode once -----------------------------------------------------------

def test_admitted_payload_decoded_once_through_seal_and_once_in_replay():
    ks, ledger, contract = fresh(sweep_every=2, contract_cls=CountingContract)
    txs = [ctr_tx(ks, "alice", "x", delta, nonce)
           for nonce, delta in enumerate((1, -2, 3))]
    for tx in txs:
        assert ledger.submit_tx(tx) == (True, "ok")
    assert contract.decoded == [tx.payload for tx in txs]
    ledger.seal_block()
    ledger.seal_block()                 # height 2 sweeps: one marker
    committed = [tx for block in ledger.chain for tx in block.txs]
    assert committed[:3] == txs and len(committed) == 4
    # sealing reuses the admission decode; only the marker is decoded there
    assert contract.decoded == [tx.payload for tx in committed]
    assert contract.applied == [tx.tx_id for tx in committed]
    replayed = CountingContract(KeyStore(7))
    assert replay_chain(ledger.chain, [replayed]) == []
    assert replayed.decoded == [tx.payload for tx in committed]
    assert replayed.counts == contract.counts


def test_payload_refused_at_admission_never_reaches_apply():
    ks, ledger, contract = fresh(contract_cls=CountingContract)
    bad = make_tx(ks, "alice", TxKind.REGISTER_DID, codec.pack("ctr", "x"))
    assert ledger.submit_tx(bad) == (False, "malformed-payload")
    assert ledger.seal_block().txs == ()
    assert contract.applied == []


# -- verification ----------------------------------------------------------

def build_chain(n_blocks=30, seed=17, sweep_every=5):
    ks, ledger, contract = fresh(sweep_every)
    rng = random.Random(seed)
    nonce = 0
    for _ in range(n_blocks):
        for _ in range(rng.randrange(0, 4)):
            sender = rng.choice(["alice", "bob", "carol"])
            delta = rng.randrange(-2, 9)
            ledger.submit_tx(ctr_tx(ks, sender, rng.choice("xyz"), delta, nonce))
            nonce += 1
        ledger.seal_block()
    return ks, ledger, contract


def test_sealing_and_verifying_pack_no_committed_tx(monkeypatch):
    """A tx is packed once, when it is built: sealing a block and verifying
    the chain hash each committed wire without packing it again. The only
    packs left are the sweep's, which builds its markers as it seals."""
    ks, ledger, contract = fresh(sweep_every=2)
    calls = {"seal": 0, "markers": 0, "verify": 0}
    phase = "seal"
    real_pack, real_sweep = codec.pack, contract.on_block_end

    def counted(*items):
        calls[phase] += 1
        return real_pack(*items)

    def sweep(height):
        nonlocal phase
        phase = "markers"
        try:
            return real_sweep(height)
        finally:
            phase = "seal"

    txs = [ctr_tx(ks, "alice", "x", delta, nonce) for nonce, delta in enumerate(range(-2, 30))]
    monkeypatch.setattr(codec, "pack", counted)
    monkeypatch.setattr(contract, "on_block_end", sweep)
    for i in range(0, len(txs), 4):
        for tx in txs[i:i + 4]:
            assert ledger.submit_tx(tx) == (True, "ok")
        ledger.seal_block()
    phase = "verify"
    assert verify_chain(ledger.chain, ks) is None
    committed = sum(len(block.txs) for block in ledger.chain)
    assert committed == len(txs) + len(contract.marks) and contract.marks
    # a marker packs its payload and, in `make_tx`, its head and its tail
    assert calls == {"seal": 0, "markers": 3 * len(contract.marks), "verify": 0}


def test_verify_accepts_honest_chain():
    ks, ledger, _ = build_chain()
    assert verify_chain(ledger.chain) is None
    assert verify_chain(ledger.chain, ks) is None


def flip_bit(data: bytes, rng) -> bytes:
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]


def test_verify_detects_field_mutations_at_lowest_height():
    ks, ledger, _ = build_chain()
    rng = random.Random(4242)
    tx_heights = [i for i, b in enumerate(ledger.chain) if b.txs]
    for _ in range(300):
        chain = list(ledger.chain)
        field = rng.choice(["hash", "prev_hash", "height", "tx_payload",
                            "tx_sender", "tx_sig", "tx_id", "status_ok",
                            "status_reason"])
        if field in ("hash", "prev_hash", "height"):
            h = rng.randrange(1, len(chain))
            block = chain[h]
            if field == "hash":
                block = replace(block, hash=flip_bit(block.hash, rng))
            elif field == "prev_hash":
                block = replace(block, prev_hash=flip_bit(block.prev_hash, rng))
            else:
                block = replace(block, height=block.height + 1)
        else:
            h = rng.choice(tx_heights)
            block = chain[h]
            ti = rng.randrange(len(block.txs))
            txs, status = list(block.txs), list(block.status)
            tx = txs[ti]
            if field == "tx_payload":
                txs[ti] = rebuilt_tx(tx, payload=flip_bit(tx.payload, rng))
            elif field == "tx_sender":
                txs[ti] = rebuilt_tx(tx, sender=tx.sender + "x")
            elif field == "tx_sig":
                txs[ti] = rebuilt_tx(tx, signature=flip_bit(tx.signature, rng))
            elif field == "tx_id":
                txs[ti] = rebuilt_tx(tx, tx_id=flip_bit(tx.tx_id, rng))
            elif field == "status_ok":
                ok, reason = status[ti]
                status[ti] = (not ok, reason)
            else:
                ok, reason = status[ti]
                status[ti] = (ok, reason + "?")
            block = replace(block, txs=tuple(txs), status=tuple(status))
        chain[h] = block
        assert verify_chain(chain, ks) == h


def test_verify_without_keystore_skips_signatures_only():
    ks, ledger, _ = build_chain()
    rng = random.Random(9)
    chain = list(ledger.chain)
    h = next(i for i, b in enumerate(chain) if b.txs)
    block = chain[h]
    txs = list(block.txs)
    txs[0] = rebuilt_tx(txs[0], signature=flip_bit(txs[0].signature, rng))
    # keep block hash consistent so only the signature is wrong
    new_hash = block_hash(block.height, block.prev_hash, txs, block.status)
    chain[h] = replace(block, txs=tuple(txs), hash=new_hash)
    chain[h + 1:] = []
    assert verify_chain(chain) is None
    assert verify_chain(chain, KeyStore(7)) == h


# -- dump / load / replay --------------------------------------------------

def test_dump_load_round_trip():
    ks, ledger, _ = build_chain()
    loaded = load_chain(dump_chain(ledger.chain))
    assert loaded == ledger.chain
    assert verify_chain(loaded, ks) is None
    assert dump_chain(loaded) == dump_chain(ledger.chain)


@pytest.mark.parametrize("name", ["fig4", "plan_switch", "beyond_bound"])
def test_cached_encoding_equals_the_five_field_pack(name):
    path = SCENARIO_DIR / f"{name}.scn"
    chain = run_scenario(parse_scenario(path.read_text()), base_dir=path.parent).ledger.chain
    loaded = load_chain(dump_chain(chain))
    txs = [tx for c in (chain, loaded) for block in c for tx in block.txs]
    assert txs
    for tx in txs:
        assert tx.wire == codec.pack(int(tx.kind), tx.payload, tx.sender,
                                     tx.signature, tx.tx_id)
        assert tx.id_ok and tx.tx_id == codec.digest(int(tx.kind), tx.payload, tx.sender)


def test_load_rejects_mangled_line():
    text = dump_chain(build_chain(n_blocks=3)[1].chain)
    with pytest.raises(ValueError):
        load_chain(text.replace(" ", "", 1))


@pytest.mark.parametrize("kind, alias", [(TxKind.SUSPEND_OTCE, codec.pack(2.0)),
                                         (TxKind.CREATE_OTCE, b"T\x01")],
                         ids=["float", "bool"])
def test_load_refuses_a_tx_kind_that_is_not_an_int(kind, alias):
    # int(alias) is the kind, so the hash and signature would still verify
    ks = KeyStore(7)
    genesis = make_genesis()
    tx = make_tx(ks, "alice", kind, b"p")
    status = ((True, "ok"),)
    block = Block(1, genesis.hash, (tx,), status,
                  block_hash(1, genesis.hash, (tx,), status))
    text = dump_chain([genesis, block])
    assert verify_chain(load_chain(text), ks) is None
    head, _, recs = text.rstrip("\n").rpartition(" ")
    canonical = codec.pack(int(kind)).hex()
    assert recs.startswith(canonical)
    forged = f"{head} {alias.hex()}{recs[len(canonical):]}\n"
    with pytest.raises(codec.CodecError, match="not an int"):
        load_chain(forged)


def _status_x(text):
    return text.replace(":0:", ":x:", 1)


def _height_01(text):
    return text.replace("\n1 ", "\n01 ", 1)


def _upper_hex(text):
    line = text.splitlines()[1]
    return text.replace(line, line.upper(), 1)


@pytest.mark.parametrize("mutate, match", [
    (_status_x, "'x' on chain line"),
    (lambda t: t.replace(":0:", ":2:", 1), "bad status '2'"),
    (_height_01, "non-canonical height"),
    (_upper_hex, "on chain line 2: not a character dump_chain writes"),
    (lambda t: t.replace("\n", "\n\n", 1), "bad chain line 2"),
    (lambda t: "# note\n" + t, "'#' on chain line 1"),
    (lambda t: t.replace("\n1 ", "\n  1 ", 1), "bad chain line 2"),
    (lambda t: t.replace("\n", " \n", 1), "bad chain line 1"),
    (lambda t: t.replace("\n1 ", "\n1\t", 1), "'\\t' on chain line 2"),
    (lambda t: t.replace("\n", "\r\n", 1), "'\\r' on chain line 1"),
    (lambda t: t.replace("\n1 ", "\n1  ", 1), "bad chain line 2"),
    (lambda t: t[:-1], "does not end with a newline"),
], ids=["status-x", "status-2", "height-01", "upper-case-hex", "blank-line",
        "comment-line", "leading-spaces", "trailing-space", "tab", "carriage-return",
        "run-of-spaces", "no-final-newline"])
def test_load_refuses_dump_text_that_dump_chain_never_writes(tmp_path, capsys,
                                                             mutate, match):
    # each of these decodes to the same chain, so one chain would have many dumps
    from otcestack.cli import main

    ks, ledger, _ = build_chain()
    text = dump_chain(ledger.chain)
    assert ":0:" in text
    forged = mutate(text)
    assert forged != text
    with pytest.raises(ValueError, match=re.escape(match)):
        load_chain(forged)
    (tmp_path / "chain.dump").write_text(forged)
    assert main(["verify-chain", "--dump", str(tmp_path / "chain.dump")]) == 1
    assert "chain corrupt" in capsys.readouterr().out


def _in_first_record(edit):
    """A mutation of the first line that holds records, applied to its
    first record, and that line's number."""
    def mutate(text):
        lines = text.split("\n")
        i = next(i for i, line in enumerate(lines) if ":" in line)
        head, _, recs = lines[i].rpartition(" ")
        rec, sep, rest = recs.partition(";")
        lines[i] = f"{head} {edit(rec)}{sep}{rest}"
        return "\n".join(lines), i + 1
    return mutate


def _reason_ff(rec):
    tx_hex, ok, _ = rec.split(":")
    return f"{tx_hex}:{ok}:ff"


@pytest.mark.parametrize("mutate, match", [
    (_in_first_record(lambda rec: rec.replace(":", "::", 1)), "too many values"),
    (_in_first_record(lambda rec: rec + ";;"), "not enough values"),
    (_in_first_record(lambda rec: rec.replace(":", "0:", 1)), "fromhex"),
    (_in_first_record(_reason_ff), "can't decode byte 0xff"),
    (_in_first_record(lambda rec: "490000000163" + rec[12:]), "unknown tx kind 99"),
], ids=["extra-colon", "empty-record", "odd-hex", "reason-not-utf8", "bad-tx"])
def test_load_names_the_line_of_a_malformed_record(tmp_path, capsys, mutate, match):
    from otcestack.cli import main

    forged, lineno = mutate(dump_chain(build_chain()[1].chain))
    with pytest.raises(ValueError, match=f"{match}.* on chain line {lineno}$"):
        load_chain(forged)
    (tmp_path / "chain.dump").write_text(forged)
    assert main(["verify-chain", "--dump", str(tmp_path / "chain.dump")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("chain corrupt") and f"on chain line {lineno})" in out


@pytest.mark.parametrize("field", [0, 1, 2], ids=["height", "prev-hash", "hash"])
def test_load_names_the_line_of_a_malformed_block_field(field):
    text = dump_chain(build_chain(n_blocks=3)[1].chain)
    lines = text.split("\n")
    parts = lines[2].split(" ")
    parts[field] = "-" if field == 0 else parts[field][1:]
    lines[2] = " ".join(parts)
    with pytest.raises(ValueError, match=" on chain line 3$"):
        load_chain("\n".join(lines))


def test_replay_reproduces_outcomes_and_state():
    ks, ledger, contract = build_chain()
    # a fresh contract with no sweep hook: markers replay as plain txs
    fresh_contract = CounterContract(KeyStore(7))
    assert replay_chain(ledger.chain, [fresh_contract]) == []
    assert fresh_contract.counts == contract.counts
    assert fresh_contract.marks == contract.marks


def test_replay_reports_outcome_mismatch():
    ks, ledger, _ = build_chain(n_blocks=10)
    chain = list(ledger.chain)
    h = next(i for i, b in enumerate(chain) if b.txs)
    block = chain[h]
    status = list(block.status)
    ok, reason = status[0]
    status[0] = (not ok, reason)
    chain[h] = replace(block, status=tuple(status))
    mismatches = replay_chain(chain, [CounterContract(KeyStore(7))])
    assert len(mismatches) == 1
    assert f"height {h}" in mismatches[0]


def test_replay_decodes_committed_bytes():
    # a committed payload that does not decode replays as refused without
    # reaching apply, whatever was admitted in its place
    ks, ledger, _ = build_chain(n_blocks=10)
    chain = list(ledger.chain)
    h = next(i for i, b in enumerate(chain) if b.txs)
    block = chain[h]
    bad = make_tx(ks, "alice", TxKind.REGISTER_DID, codec.pack("ctr", "x"))
    txs = (bad,) + block.txs[1:]
    status = ((False, "malformed-payload"),) + block.status[1:]
    chain[h] = replace(block, txs=txs, status=status)
    replayed = CountingContract(KeyStore(7))
    assert replay_chain(chain, [replayed]) == []
    assert bad.tx_id not in replayed.applied
    assert bad.payload in replayed.decoded
