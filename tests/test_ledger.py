import random
from dataclasses import replace

import pytest

from otcestack import codec
from otcestack.keys import KeyStore
from otcestack.ledger import (SYSTEM_SENDER, ZERO_HASH, Ledger, TxKind,
                              block_hash, decode_tx, dump_chain, encode_tx,
                              load_chain, make_genesis, make_tx, replay_chain,
                              tx_digest, verify_chain)


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
    assert decode_tx(encode_tx(tx)) == tx


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
    base = tx_digest(TxKind.REGISTER_DID, b"p", "alice")
    assert tx_digest(TxKind.SUSPEND_OTCE, b"p", "alice") != base
    assert tx_digest(TxKind.REGISTER_DID, b"q", "alice") != base
    assert tx_digest(TxKind.REGISTER_DID, b"p", "bob") != base


# -- admission -------------------------------------------------------------

def test_submit_accepts_well_formed():
    ks, ledger, _ = fresh()
    assert ledger.submit_tx(ctr_tx(ks, "alice", "x", 1, 0)) == (True, "ok")


def test_submit_rejects_bad_tx_id():
    ks, ledger, _ = fresh()
    tx = ctr_tx(ks, "alice", "x", 1, 0)
    assert ledger.submit_tx(replace(tx, payload=tx.payload + b"!")) == (False, "bad-tx-id")


def test_submit_rejects_bad_signature():
    ks, ledger, _ = fresh()
    tx = ctr_tx(ks, "alice", "x", 1, 0)
    bad = replace(tx, signature=bytes(b ^ 1 for b in tx.signature))
    assert ledger.submit_tx(bad) == (False, "bad-signature")


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
                txs[ti] = replace(tx, payload=flip_bit(tx.payload, rng))
            elif field == "tx_sender":
                txs[ti] = replace(tx, sender=tx.sender + "x")
            elif field == "tx_sig":
                txs[ti] = replace(tx, signature=flip_bit(tx.signature, rng))
            elif field == "tx_id":
                txs[ti] = replace(tx, tx_id=flip_bit(tx.tx_id, rng))
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
    txs[0] = replace(txs[0], signature=flip_bit(txs[0].signature, rng))
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


def test_load_rejects_mangled_line():
    text = dump_chain(build_chain(n_blocks=3)[1].chain)
    with pytest.raises(ValueError):
        load_chain(text.replace(" ", "", 1))


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
