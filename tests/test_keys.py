import pytest

from otcestack.keys import SIG_LEN, KeyStore


def test_sign_verify_round_trip():
    ks = KeyStore(1)
    ks.ensure("alice")
    sig = ks.sign("alice", b"message")
    assert len(sig) == SIG_LEN
    assert ks.verify("alice", b"message", sig)


def test_wrong_message_fails():
    ks = KeyStore(1)
    ks.ensure("alice")
    sig = ks.sign("alice", b"message")
    assert not ks.verify("alice", b"messagf", sig)


def test_every_flipped_bit_fails():
    ks = KeyStore(5)
    ks.ensure("n")
    sig = ks.sign("n", b"payload")
    for byte in range(len(sig)):
        for bit in range(8):
            bad = bytearray(sig)
            bad[byte] ^= 1 << bit
            assert not ks.verify("n", b"payload", bytes(bad))


def test_identities_have_distinct_keys():
    ks = KeyStore(1)
    ks.ensure("a")
    ks.ensure("b")
    assert ks.pubkey("a") != ks.pubkey("b")
    sig = ks.sign("a", b"m")
    assert not ks.verify("b", b"m", sig)


def test_unknown_identity_verifies_false():
    ks = KeyStore(1)
    assert not ks.verify("ghost", b"m", bytes(SIG_LEN))


def test_seed_determines_keys():
    a, b = KeyStore(9), KeyStore(9)
    a.ensure("x")
    b.ensure("x")
    assert a.pubkey("x") == b.pubkey("x")
    assert a.sign("x", b"m") == b.sign("x", b"m")
    c = KeyStore(10)
    c.ensure("x")
    assert c.pubkey("x") != a.pubkey("x")


def test_cross_seed_signature_fails():
    a, c = KeyStore(9), KeyStore(10)
    a.ensure("x")
    c.ensure("x")
    assert not c.verify("x", b"m", a.sign("x", b"m"))


@pytest.mark.parametrize("seed", [2**127, -2**127 - 1])
def test_seed_outside_the_range_is_refused(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[-2\^127, 2\^127\)"):
        KeyStore(seed)
