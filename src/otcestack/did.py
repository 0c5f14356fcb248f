"""Self-certifying identifier registry.

An identifier is a prefix of the hash of the holder's public key, so a
record can be checked against the key it names without consulting anyone.
One identifier per public key keeps cheap duplicate identities out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import codec
from .ledger import Transaction, TxKind


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
    def __init__(self, policy: AttestationPolicy | None = None):
        self.policy = policy        # None accepts any attestation
        self.records: dict[str, DIDRecord] = {}

    def decode_payload(self, kind: TxKind, payload: bytes) -> tuple:
        """The fields between the payload's tag and its nonce, which `apply`
        reads: the public key and its (name, value) attributes, each pair
        checked here and no name given twice."""
        fields = codec.unpack(payload, self.TXS[kind][0])[1:-1]
        attrs = fields[1]
        if len({codec.check_record(pair, codec.PAIR)[0] for pair in attrs}) != len(attrs):
            raise codec.CodecError("duplicate attribute")
        return fields

    def apply(self, tx: Transaction, decoded, height: int) -> tuple[bool, str]:
        """Apply a committed tx, given its payload as `decode_payload` returned it."""
        return self.TXS[tx.kind][1](self, tx, decoded, height)

    def _apply_register(self, tx, decoded, height) -> tuple[bool, str]:
        pubkey, attrs = decoded
        if self.policy is not None:
            why = self.policy.check(dict(attrs))
            if why is not None:
                return False, why
        did = did_from_pubkey(pubkey)
        if did in self.records:
            return False, "duplicate-did"
        self.records[did] = DIDRecord(did, pubkey, tuple(sorted(attrs)), height)
        return True, did

    # tx kind -> the shape of its payload, (tag, *fields, nonce), and the
    # rule `apply` runs on its fields
    TXS = {TxKind.REGISTER_DID: (("register", bytes, tuple, int), _apply_register)}
    KINDS = frozenset(TXS)

    def dump(self) -> str:
        lines = []
        for did in sorted(self.records):
            rec = self.records[did]
            attrs = ",".join(f"{name}={value.hex()}" for name, value in rec.attestation)
            lines.append(f"{rec.did} {rec.pubkey.hex()} {rec.registered_at} {attrs}\n")
        return "".join(lines)
