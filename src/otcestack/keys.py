"""Seeded identity keys and signature checks.

The keystore is the simulation's stand-in for a PKI: it derives one secret
per identity from the run seed, publishes a key id (a hash of the secret),
and verifies signatures by recomputation. Signature = HMAC-SHA256 over the
message, so signing is deterministic and a single flipped byte fails
verification.
"""

from __future__ import annotations

import hashlib
import hmac

SIG_LEN = 32
# Key secrets derive from the seed as 16 signed bytes.
SEED_RANGE = range(-2**127, 2**127)


class KeyStore:
    def __init__(self, seed: int):
        if seed not in SEED_RANGE:
            raise ValueError("seed must be in [-2^127, 2^127)")
        self.seed = seed
        self._secrets: dict[str, bytes] = {}

    def ensure(self, identity: str) -> bytes:
        """Create the identity's key if missing; return its public key id."""
        if identity not in self._secrets:
            base = self.seed.to_bytes(16, "big", signed=True)
            secret = hashlib.sha256(b"key/" + base + identity.encode()).digest()
            self._secrets[identity] = secret
        return self.pubkey(identity)

    @staticmethod
    def _derive_pubkey(secret: bytes) -> bytes:
        return hashlib.sha256(b"pub/" + secret).digest()

    def pubkey(self, identity: str) -> bytes:
        return self._derive_pubkey(self._secrets[identity])

    def sign(self, identity: str, message: bytes) -> bytes:
        return hmac.new(self._secrets[identity], message, hashlib.sha256).digest()

    def verify(self, identity: str, message: bytes, signature: bytes) -> bool:
        if identity not in self._secrets:
            return False
        return hmac.compare_digest(self.sign(identity, message), signature)
