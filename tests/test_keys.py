import hashlib
import hmac
import random

import pytest

from otcestack.keys import SIG_LEN, KeyStore


def test_sign_verify_round_trip():
    ks = KeyStore(1)
    sig = ks.sign("alice", b"message")
    assert len(sig) == SIG_LEN
    assert ks.verify("alice", b"message", sig)


def test_wrong_message_fails():
    ks = KeyStore(1)
    sig = ks.sign("alice", b"message")
    assert not ks.verify("alice", b"messagf", sig)


def test_every_flipped_bit_fails():
    ks = KeyStore(5)
    sig = ks.sign("n", b"payload")
    for byte in range(len(sig)):
        for bit in range(8):
            bad = bytearray(sig)
            bad[byte] ^= 1 << bit
            assert not ks.verify("n", b"payload", bytes(bad))


def test_identities_have_distinct_keys():
    ks = KeyStore(1)
    assert ks.pubkey("a") != ks.pubkey("b")
    sig = ks.sign("a", b"m")
    assert not ks.verify("b", b"m", sig)


def test_fresh_store_keys_an_identity_on_first_use():
    ks = KeyStore(1)
    sig = ks.sign("newcomer", b"m")
    assert ks.verify("newcomer", b"m", sig)
    assert len(ks.pubkey("newcomer")) == 32
    assert KeyStore(1).pubkey("newcomer") == ks.pubkey("newcomer")


def test_stores_with_one_seed_check_each_others_signatures():
    signer, checker = KeyStore(4), KeyStore(4)
    sig = signer.sign("x", b"m")
    assert checker.verify("x", b"m", sig)
    assert not checker.verify("y", b"m", sig)
    assert checker.pubkey("y") == signer.pubkey("y")


def test_unknown_identity_verifies_false():
    ks = KeyStore(1)
    assert not ks.verify("ghost", b"m", bytes(SIG_LEN))


def test_seed_determines_keys():
    a, b = KeyStore(9), KeyStore(9)
    assert a.pubkey("x") == b.pubkey("x")
    assert a.sign("x", b"m") == b.sign("x", b"m")
    c = KeyStore(10)
    assert c.pubkey("x") != a.pubkey("x")


def test_cross_seed_signature_fails():
    a, c = KeyStore(9), KeyStore(10)
    assert not c.verify("x", b"m", a.sign("x", b"m"))


@pytest.mark.parametrize("seed", [2**127, -2**127 - 1])
def test_seed_outside_the_range_is_refused(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[-2\^127, 2\^127\)"):
        KeyStore(seed)


@pytest.mark.parametrize("seed", [0, 1, -2**127, 2**127 - 1])
def test_sign_equals_stdlib_hmac(seed):
    # the stored pad states give the bytes of a full HMAC-SHA256 under the
    # identity's secret, for messages shorter and longer than a 64-byte block
    ks = KeyStore(seed)
    rng = random.Random(seed)
    base = b"key/" + seed.to_bytes(16, "big", signed=True)
    for identity in ("", "a", "oracle:audit", "n\u00e9ud-\u03b1", "\u7bc0\u70b9"):
        secret = hashlib.sha256(base + identity.encode()).digest()
        for length in range(301):
            msg = rng.randbytes(length)
            want = hmac.new(secret, msg, hashlib.sha256).digest()
            assert ks.sign(identity, msg) == want
            assert ks.verify(identity, msg, want)
