"""Seeded identity keys and signature checks.

The keystore is the simulation's stand-in for a PKI: every identity's
secret derives from the run seed and the identity's name, so an identity
has a key from the start and two keystores with one seed agree on every
key. `sign`, `verify` and `pubkey` derive a secret the first time they
need it and keep it. The public key id is a hash of the secret, and
signatures are verified by recomputation. Signature = HMAC-SHA256 over
the message, so signing is deterministic and a single flipped byte fails
verification.
"""

from __future__ import annotations

import hashlib
import hmac

SIG_LEN = 32
# Key secrets derive from the seed as 16 signed bytes.
SEED_RANGE = range(-2**127, 2**127)


class _Secrets(dict):
    """identity -> secret, deriving a missing secret from the seed."""

    def __init__(self, seed: int):
        super().__init__()
        self._base = b"key/" + seed.to_bytes(16, "big", signed=True)

    def __missing__(self, identity: str) -> bytes:
        secret = self[identity] = hashlib.sha256(self._base + identity.encode()).digest()
        return secret


class KeyStore:
    def __init__(self, seed: int):
        if seed not in SEED_RANGE:
            raise ValueError("seed must be in [-2^127, 2^127)")
        self.seed = seed
        self._secrets = _Secrets(seed)

    def pubkey(self, identity: str) -> bytes:
        return hashlib.sha256(b"pub/" + self._secrets[identity]).digest()

    def sign(self, identity: str, message: bytes) -> bytes:
        return hmac.new(self._secrets[identity], message, hashlib.sha256).digest()

    def verify(self, identity: str, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(identity, message), signature)
