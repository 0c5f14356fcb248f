"""Self-certifying identifier registry and dealer-based threshold secrets.

An identifier is a prefix of the hash of the holder's public key, so a
record can be checked against the key it names without consulting anyone.
One identifier per public key keeps cheap duplicate identities out.
Threshold sharing splits an integer secret into n field points of a random
degree-(t-1) polynomial with the secret at x=0; any t distinct shares
reconstruct it by Lagrange interpolation, and t-1 shares constrain nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import codec
from .ledger import Transaction, TxKind

PRIME = 2**127 - 1


# -- identifier registry ---------------------------------------------------

def did_from_pubkey(pubkey: bytes) -> str:
    return hashlib.sha256(pubkey).hexdigest()[:16]


@dataclass(frozen=True)
class DIDRecord:
    did: str
    pubkey: bytes
    attestation: tuple[tuple[str, bytes], ...]   # (name, value), sorted by name
    registered_at: int


@dataclass(frozen=True)
class AttestationPolicy:
    """Required attribute names, each with an exact byte length (None = any)."""
    required: tuple[tuple[str, int | None], ...]

    def __post_init__(self):
        if not self.required:
            raise ValueError("policy needs at least one required attribute")
        names = [name for name, _ in self.required]
        if not all(names):
            raise ValueError("policy attribute names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("duplicate policy attribute")
        if any(length is not None and length < 0 for _, length in self.required):
            raise ValueError("policy length must be non-negative")

    def check(self, attestation: dict[str, bytes]) -> str | None:
        for name, length in self.required:
            if name not in attestation:
                return f"missing-attribute:{name}"
            if length is not None and len(attestation[name]) != length:
                return f"bad-format:{name}"
        return None


def register_payload(pubkey: bytes, attestation: dict[str, bytes], nonce: int) -> bytes:
    attrs = [[name, attestation[name]] for name in sorted(attestation)]
    return codec.pack("register", pubkey, attrs, nonce)


class DIDRegistry:
    KINDS = frozenset({TxKind.REGISTER_DID})

    def __init__(self, policy: AttestationPolicy | None = None):
        self.policy = policy        # None accepts any attestation
        self.records: dict[str, DIDRecord] = {}

    def decode_payload(self, kind: TxKind, payload: bytes):
        _, pubkey, attrs, _ = codec.unpack_record(payload, "register", bytes, tuple, int)
        attestation = dict(codec.check_record(pair, str, bytes) for pair in attrs)
        if len(attestation) != len(attrs):
            raise codec.CodecError("duplicate attribute")
        return pubkey, attestation

    def apply(self, tx: Transaction, decoded, height: int) -> tuple[bool, str]:
        """Apply a committed tx, given its payload as `decode_payload` returned it."""
        pubkey, attestation = decoded
        if self.policy is not None:
            why = self.policy.check(attestation)
            if why is not None:
                return False, why
        did = did_from_pubkey(pubkey)
        if did in self.records:
            return False, "duplicate-did"
        self.records[did] = DIDRecord(
            did, pubkey, tuple(sorted(attestation.items())), height)
        return True, did

    def dump(self) -> str:
        lines = []
        for did in sorted(self.records):
            rec = self.records[did]
            attrs = ",".join(f"{name}={value.hex()}" for name, value in rec.attestation)
            lines.append(f"{rec.did} {rec.pubkey.hex()} {rec.registered_at} {attrs}\n")
        return "".join(lines)


# -- threshold secret sharing ----------------------------------------------

@dataclass(frozen=True)
class SecretShare:
    index: int
    value: int
    group_id: str


def share_secret(secret: int, threshold: int, count: int, rng,
                 prime: int = PRIME, group_id: str = "share") -> list[SecretShare]:
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    if threshold > count:
        raise ValueError("threshold cannot exceed the share count")
    if count >= prime:
        raise ValueError("share count must be below the field size")
    if not 0 <= secret < prime:
        raise ValueError("secret outside the field")
    coeffs = [secret] + [rng.randrange(prime) for _ in range(threshold - 1)]
    shares = []
    for i in range(1, count + 1):
        y = 0
        for c in reversed(coeffs):
            y = (y * i + c) % prime
        shares.append(SecretShare(i, y, group_id))
    return shares


def reconstruct(shares, threshold: int, prime: int = PRIME) -> int:
    if len(shares) < threshold:
        raise ValueError("not enough shares to reconstruct")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share indices")
    return _eval_lagrange([(s.index, s.value) for s in shares], 0, prime)


def _eval_lagrange(points, x: int, prime: int) -> int:
    total = 0
    for xj, yj in points:
        num = den = 1
        for xm, _ in points:
            if xm == xj:
                continue
            num = num * (x - xm) % prime
            den = den * (xj - xm) % prime
        total = (total + yj * num * pow(den, -1, prime)) % prime
    return total


def consistent_candidates(shares, threshold: int, prime: int) -> list[int]:
    """Brute-force sweep: secrets s for which some degree<t polynomial passes
    through (0, s) and every given share. Any t distinct points fix a unique
    degree<t polynomial, so the sweep interpolates through the first t points
    and checks the rest lie on it. With t-1 shares every field element stays
    possible — the no-information property checked in tests."""
    points = [(s.index, s.value) for s in shares]
    out = []
    for candidate in range(prime):
        all_points = [(0, candidate)] + points
        base, rest = all_points[:threshold], all_points[threshold:]
        if len(base) < threshold or all(
                _eval_lagrange(base, x, prime) == y for x, y in rest):
            out.append(candidate)
    return out
