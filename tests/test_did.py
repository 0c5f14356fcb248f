import hashlib
import random

import pytest

from otcestack import codec
from otcestack.did import (AttestationPolicy, DIDRegistry, SecretShare,
                           consistent_candidates, did_from_pubkey,
                           reconstruct, register_payload, share_secret)
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


# -- threshold sharing -----------------------------------------------------

def test_round_trip_all_small_shapes():
    rng = random.Random(31)
    for n in range(1, 8):
        for t in range(1, n + 1):
            for _ in range(5):
                secret = rng.randrange(2**64)
                shares = share_secret(secret, t, n, rng)
                assert len(shares) == n
                picked = rng.sample(shares, t)
                assert reconstruct(picked, t) == secret


def test_any_subset_of_threshold_size_works():
    rng = random.Random(32)
    secret = 123456789
    shares = share_secret(secret, 3, 6, rng)
    from itertools import combinations
    for subset in combinations(shares, 3):
        assert reconstruct(list(subset), 3) == secret


def test_extra_shares_do_not_hurt():
    rng = random.Random(33)
    secret = rng.randrange(2**100)
    shares = share_secret(secret, 4, 7, rng)
    assert reconstruct(shares, 4) == secret


def test_too_few_shares_refused():
    rng = random.Random(34)
    shares = share_secret(99, 3, 5, rng)
    with pytest.raises(ValueError):
        reconstruct(shares[:2], 3)


def test_duplicate_indices_refused():
    rng = random.Random(35)
    shares = share_secret(99, 2, 4, rng)
    with pytest.raises(ValueError):
        reconstruct([shares[0], shares[0]], 2)


def test_share_indices_start_at_one():
    rng = random.Random(36)
    shares = share_secret(5, 2, 4, rng)
    assert [s.index for s in shares] == [1, 2, 3, 4]
    assert all(s.group_id == "share" for s in shares)


def test_bad_parameters_refused():
    rng = random.Random(37)
    with pytest.raises(ValueError):
        share_secret(1, 0, 3, rng)
    with pytest.raises(ValueError):
        share_secret(1, 4, 3, rng)
    with pytest.raises(ValueError):
        share_secret(-1, 2, 3, rng)
    with pytest.raises(ValueError):
        share_secret(2**127 - 1, 2, 3, rng)


def test_wrong_share_value_changes_answer():
    rng = random.Random(38)
    secret = 424242
    shares = share_secret(secret, 3, 5, rng)
    tampered = [SecretShare(shares[0].index, (shares[0].value + 1) % (2**127 - 1),
                            shares[0].group_id)] + shares[1:3]
    assert reconstruct(tampered, 3) != secret


def test_below_threshold_reveals_nothing_small_field():
    # in a 257-element field, sweep every candidate secret: with t-1 shares
    # every field element remains consistent with some polynomial
    prime = 257
    rng = random.Random(39)
    for _ in range(20):
        secret = rng.randrange(prime)
        t = rng.randrange(2, 5)
        n = rng.randrange(t, 7)
        shares = share_secret(secret, t, n, rng, prime=prime)
        partial = rng.sample(shares, t - 1)
        assert consistent_candidates(partial, t, prime) == list(range(prime))


def test_threshold_shares_pin_one_candidate_small_field():
    prime = 257
    rng = random.Random(40)
    for _ in range(10):
        secret = rng.randrange(prime)
        t = rng.randrange(1, 5)
        shares = share_secret(secret, t, 6, rng, prime=prime)
        picked = rng.sample(shares, t)
        assert consistent_candidates(picked, t, prime) == [secret]
