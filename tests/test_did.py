import hashlib

import pytest

from otcestack import codec
from otcestack.did import (AttestationPolicy, DIDRegistry, did_from_pubkey,
                           register_payload)
from otcestack.keys import KeyStore
from otcestack.ledger import Ledger, TxKind, make_tx


def fresh(policy=None):
    ks = KeyStore(13)
    ledger = Ledger(ks)
    reg = DIDRegistry(policy)
    ledger.register_contract(reg)
    return ks, ledger, reg


def register(ks, ledger, identity, attestation, nonce=0):
    tx = make_tx(ks, identity, TxKind.REGISTER_DID,
                 register_payload(ks.pubkey(identity), attestation, nonce))
    ok, reason = ledger.submit_tx(tx)
    assert ok, reason
    return ledger.seal_block().status[0]


# -- registry --------------------------------------------------------------

def test_identifier_is_pubkey_hash_prefix():
    ks = KeyStore(13)
    pk = ks.pubkey("alice")
    assert did_from_pubkey(pk) == hashlib.sha256(pk).hexdigest()[:16]
    assert len(did_from_pubkey(pk)) == 16


def test_register_and_lookup():
    ks, ledger, reg = fresh()
    ok, did = register(ks, ledger, "alice", {"role": b"relay"})
    assert ok
    rec = reg.records[did]
    assert rec.pubkey == ks.pubkey("alice")
    assert rec.attestation == (("role", b"relay"),)
    assert rec.registered_at == 1


def test_same_key_cannot_register_twice():
    ks, ledger, _ = fresh()
    assert register(ks, ledger, "alice", {"role": b"relay"}, nonce=0)[0]
    ok, reason = register(ks, ledger, "alice", {"role": b"other"}, nonce=1)
    assert (ok, reason) == (False, "duplicate-did")


def test_distinct_keys_get_distinct_ids():
    ks, ledger, reg = fresh()
    dids = {register(ks, ledger, who, {}, nonce=i)[1]
            for i, who in enumerate(["a", "b", "c", "d"])}
    assert len(dids) == 4
    assert set(reg.records) == dids


def test_policy_enforced_on_register():
    policy = AttestationPolicy((("role", None), ("proof", 4)))
    ks, ledger, reg = fresh(policy)
    ok, reason = register(ks, ledger, "a", {"role": b"x"}, nonce=0)
    assert (ok, reason) == (False, "missing-attribute:proof")
    ok, reason = register(ks, ledger, "b", {"role": b"x", "proof": b"abc"}, nonce=1)
    assert (ok, reason) == (False, "bad-format:proof")
    ok, _ = register(ks, ledger, "c", {"role": b"x", "proof": b"abcd"}, nonce=2)
    assert ok
    assert len(reg.records) == 1


def test_policy_requires_some_attribute():
    with pytest.raises(ValueError):
        AttestationPolicy(())


@pytest.mark.parametrize("required", [
    (("", None),),
    (("role", None), ("role", 4)),
    (("role", -1),),
], ids=["empty-name", "duplicate", "negative-length"])
def test_policy_refuses_bad_entries(required):
    with pytest.raises(ValueError):
        AttestationPolicy(required)


def test_malformed_register_payload_rejected_at_admission():
    ks, ledger, _ = fresh()
    tx = make_tx(ks, "alice", TxKind.REGISTER_DID, codec.pack("register", 1, 2))
    assert ledger.submit_tx(tx) == (False, "malformed-payload")


def test_duplicate_attribute_names_rejected():
    reg = DIDRegistry()
    payload = codec.pack("register", b"pk", [["a", b"1"], ["a", b"2"]], 0)
    with pytest.raises(codec.CodecError):
        reg.decode_payload(TxKind.REGISTER_DID, payload)


def test_dump_lists_sorted_records():
    ks, ledger, reg = fresh()
    register(ks, ledger, "alice", {"role": b"r"}, nonce=0)
    register(ks, ledger, "bob", {}, nonce=1)
    lines = reg.dump().splitlines()
    assert len(lines) == 2
    assert lines == sorted(lines)
    assert "role=" + b"r".hex() in lines[0] + lines[1]
