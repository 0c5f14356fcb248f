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

Every network message is one signed envelope: the packed record (protocol
tag, scope, signer, kind, body...), where the scope is the consensus
instance or DAG execution it belongs to, then the signer's signature.
`envelope` packs the signed bytes, which a certificate's vote pairs also
sign, and `seal` signs them. `unseal` checks cheapest first, so no HMAC runs
until the rest pass: the wire decodes, tag and scope match, the signer is a
member, the kind is a str; then the signature. The engine checks the body.

Memo rule: what a wire opens to depends only on its bytes, the tag, scope,
members and seed, so the nodes of one instance or execution share one memo,
wire -> what it opened to (None if refused): their network's `memo`, which
holds a wire while a copy of it is queued (see `simnet`). So a wire is
opened once while a copy of it is queued; one sent again after every copy
was handled is opened again, to the same result. `Peer` is the one
receiver of both engines: on every delivery it checks that the network's
sender is the signer, and counts a refusal as one drop of its own. A node
built without a memo gets its own, which keeps every wire.
"""

from __future__ import annotations

import hashlib
import hmac

from . import codec
from .simnet import SimEvent

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


def envelope(tag: str, scope: str, signer: str, kind: str, *body) -> bytes:
    """The signed bytes of an envelope."""
    return codec.pack(tag, scope, signer, kind, *body)


def seal(keystore: KeyStore, tag: str, scope: str, signer: str, kind: str, *body) -> bytes:
    """The wire of an envelope: its bytes, then `signer`'s signature."""
    data = envelope(tag, scope, signer, kind, *body)
    return data + keystore.sign(signer, data)


def unseal(keystore: KeyStore, wire: bytes, tag: str, scope: str, members):
    """(signer, kind, body) of a `tag` envelope of `scope` signed by one of
    `members`, else None; a wire no longer than a signature has no fields.
    `members` may be any container with `in`, such as a frozenset."""
    data = wire[:-SIG_LEN]
    try:
        fields = codec.unpack(data)
    except codec.CodecError:
        return None
    if (len(fields) < 4 or fields[0] != tag or fields[1] != scope
            or fields[2] not in members or not isinstance(fields[3], str)
            or not keystore.verify(fields[2], data, wire[-SIG_LEN:])):
        return None
    return fields[2], fields[3], fields[4:]


class Peer:
    """A member of a group that speaks only through signed envelopes: the
    node, its keystore, the group's `members`, the memo `verified` (the
    network's, shared by the memo rule above) and `dropped`, the deliveries
    it refused.

    `step` is the event entry. A message is opened by the engine's
    `_open(wire)` when its wire is not in the memo, so once per distinct
    wire while a copy of it is queued; one that opens to None, or whose signer
    (`_SIGNER` of what it opened to) is not the network's sender, is one
    drop. An accepted message goes to `_on_msg(opened, now)`, a timer to
    `_on_timer(event, now)` and a local event to `_on_local(event, now)`.
    An engine binds `step` in its own class, so each can be wrapped apart;
    it seals and sends its own messages."""

    def __init__(self, node: str, keystore: KeyStore, members,
                 verified: dict | None = None):
        self.node = node
        self.keystore = keystore
        self.members = members
        self.verified = {} if verified is None else verified
        self.dropped = 0

    def step(self, event: SimEvent, now: int) -> list:
        if event.kind == "msg":     # first: most events are deliveries
            wire = event.payload
            try:
                opened = self.verified[wire]
            except KeyError:
                opened = self.verified[wire] = self._open(wire)
            if opened is None or self._SIGNER(opened) != event.src:
                self.dropped += 1
                return []
            return self._on_msg(opened, now)
        if event.kind == "timer":
            return self._on_timer(event, now)
        return self._on_local(event, now)
