"""Seeded identity keys and signature checks.

The keystore is the simulation's stand-in for a PKI: every identity's
secret derives from the run seed and the identity's name, so an identity
has a key from the start and two keystores with one seed agree on every
key. `sign`, `verify` and `pubkey` derive a secret the first time they
need it and keep it. The public key id is a hash of the secret, and
signatures are verified by recomputation. Signature = HMAC-SHA256 over
the message, so signing is deterministic and a single flipped byte fails
verification.

The HMAC key schedule runs once per identity: with the secret, the store
keeps the SHA-256 states that have absorbed the secret's inner and outer
pads (RFC 2104 §2), and `sign` continues copies of them. The signature
bytes are those of `hmac.new(secret, message, hashlib.sha256)`.
"""

from __future__ import annotations

import hashlib
import hmac

SIG_LEN = 32
# Key secrets derive from the seed as 16 signed bytes.
SEED_RANGE = range(-2**127, 2**127)

# HMAC's pads as `bytes.translate` tables, as the stdlib `hmac` fallback has them
_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class _Secrets(dict):
    """identity -> (secret, inner pad state, outer pad state), deriving a
    missing secret from the seed."""

    def __init__(self, seed: int):
        super().__init__()
        self._base = b"key/" + seed.to_bytes(16, "big", signed=True)

    def __missing__(self, identity: str):
        secret = hashlib.sha256(self._base + identity.encode()).digest()
        key = secret.ljust(_BLOCK, b"\0")
        entry = self[identity] = (secret, hashlib.sha256(key.translate(_IPAD)),
                                  hashlib.sha256(key.translate(_OPAD)))
        return entry


class KeyStore:
    def __init__(self, seed: int):
        if seed not in SEED_RANGE:
            raise ValueError("seed must be in [-2^127, 2^127)")
        self.seed = seed
        self._secrets = _Secrets(seed)

    def pubkey(self, identity: str) -> bytes:
        return hashlib.sha256(b"pub/" + self._secrets[identity][0]).digest()

    def sign(self, identity: str, message: bytes) -> bytes:
        _, inner, outer = self._secrets[identity]
        inner = inner.copy()
        inner.update(message)
        outer = outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, identity: str, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(identity, message), signature)
