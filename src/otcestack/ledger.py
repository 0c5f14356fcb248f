"""Hash-chained transaction log with pluggable contract hooks.

The ledger doubles as the global clock: sealing a block advances the height
by one whether or not any transactions are queued. Contracts register
per-kind hooks that run while a block is sealed; a tx refused by its hook is
still committed, flagged failed, so audits can see refused requests.
End-of-block hooks may append system transactions (the expiry sweep's
auto-termination markers) to the block being sealed. Replaying a chain
through fresh contracts must reproduce both the per-tx outcomes and the
final contract state.

The ledger decodes payloads, contracts apply decoded values. A payload is
decoded once, at admission; the queued tx carries that value to its
contract's `apply` at sealing. Markers and replayed txs are decoded
from their committed bytes, so replay checks what is on the chain, not
what was admitted; a payload that does not decode there is refused as
"malformed-payload".

A tx is its wire: it is encoded, and its id checked, once, when it is
built, and a `Transaction` holds its canonical bytes (`wire`), whether its
id is the digest of its kind, payload and sender (`id_ok`), and the
fields a check reads (kind, sender, tx id). Its payload and signature are
read out of the wire when asked for, so a committed byte is held once.
Admission, sealing, verification and the dump read these instead of
packing the tx again; the tx is frozen, and a changed field means a new
tx from the constructor, which packs all five fields. Two txs are equal
when their wires are: the wire encodes the five fields one-to-one.
`make_tx` packs a tx's head (kind, payload, sender) once, for both its id
and its wire, and hashes it once: the id it derives is the head's digest,
so it does not check that again. A tx loaded from a dump keeps the bytes
it was decoded from as its wire: `decode_tx` refuses non-canonical bytes,
so they are the bytes a re-pack would give. A block's hash streams each
committed wire into the hash (`block_hash`), so sealing and verifying
pack no committed tx again.

A dump has one text per chain: `load_chain` refuses any character
`dump_chain` never writes (upper-case hex, `#`, tabs, `\r`), a text that
does not end with a newline, a line that is not four fields split by
single spaces (a blank line, leading or trailing spaces, runs of spaces),
a height not written as `str(int(h))` and a status token other than `0`
or `1`.
"""

from __future__ import annotations

import struct
from dataclasses import FrozenInstanceError, dataclass
from enum import IntEnum

from . import codec
from .keys import KeyStore

ZERO_HASH = bytes(32)
SYSTEM_SENDER = "system"
MALFORMED = "malformed-payload"


class TxKind(IntEnum):
    CREATE_OTCE = 1
    SUSPEND_OTCE = 2
    RESUME_OTCE = 3
    SUBMIT_RESULT = 4
    TERMINATE_OTCE = 5
    REGISTER_DID = 6
    UPDATE_PLAN = 7


# each kind by its number, for `decode_tx`
_KINDS = {kind.value: kind for kind in TxKind}
# a tx's wire: kind, payload, sender, signature, tx id
_TX_SHAPE = (int, bytes, str, bytes, bytes)
# the body length in a codec item head (a tag byte, then this)
_LEN = struct.Struct(">I").unpack_from


class Transaction:
    """A frozen tx: its kind, sender and id; `wire`, the packed kind,
    payload, sender, signature and tx id; `id_ok`, whether `tx_id` is the
    digest of their head (kind, payload, sender); and the signature's
    length, which places it in the wire before the tx id."""

    __slots__ = ("kind", "sender", "tx_id", "wire", "id_ok", "_sig_len")

    def __init__(self, kind: TxKind, payload: bytes, sender: str, signature: bytes,
                 tx_id: bytes):
        head = codec.pack(int(kind), payload, sender)
        _fill(self, kind, sender, tx_id, head + codec.pack(signature, tx_id),
              codec.sha(head) == tx_id, len(signature))

    @property
    def payload(self) -> bytes:
        wire = self.wire
        # the payload's body starts 5 bytes after the kind item, which is
        # 5 bytes and its body long
        at = 10 + _LEN(wire, 1)[0]
        return wire[at:at + _LEN(wire, at - 4)[0]]

    @property
    def signature(self) -> bytes:
        end = len(self.wire) - 5 - len(self.tx_id)
        return self.wire[end - self._sig_len:end]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Transaction:
            return NotImplemented
        return self.wire == other.wire

    def __hash__(self):
        return hash(self.wire)

    def __repr__(self):
        return (f"Transaction(kind={self.kind!r}, payload={self.payload!r}, "
                f"sender={self.sender!r}, signature={self.signature!r}, "
                f"tx_id={self.tx_id!r})")


def _fill(tx: Transaction, kind: TxKind, sender: str, tx_id: bytes, wire: bytes,
          id_ok: bool, sig_len: int) -> Transaction:
    """Set the slots of the frozen `tx`."""
    setattr_ = object.__setattr__
    setattr_(tx, "kind", kind)
    setattr_(tx, "sender", sender)
    setattr_(tx, "tx_id", tx_id)
    setattr_(tx, "wire", wire)
    setattr_(tx, "id_ok", id_ok)
    setattr_(tx, "_sig_len", sig_len)
    return tx


def make_tx(keystore: KeyStore, sender: str, kind: TxKind, payload: bytes) -> Transaction:
    head = codec.pack(int(kind), payload, sender)
    txid = codec.sha(head)
    signature = keystore.sign(sender, txid)
    return _fill(object.__new__(Transaction), kind, sender, txid,
                 head + codec.pack(signature, txid), True, len(signature))


def decode_tx(data: bytes) -> Transaction:
    kind_num, _, sender, signature, tx_id = codec.unpack(data, _TX_SHAPE)
    kind = _KINDS.get(kind_num)
    if kind is None:
        raise codec.CodecError(f"unknown tx kind {kind_num}")
    # `data` is canonical, so it is the tx's wire, and its head is all of
    # it but the trailing `pack(signature, tx_id)`: two 5-byte item heads
    head = memoryview(data)[:len(data) - 10 - len(signature) - len(tx_id)]
    return _fill(object.__new__(Transaction), kind, sender, tx_id, data,
                 codec.sha(head) == tx_id, len(signature))


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    prev_hash: bytes
    txs: tuple[Transaction, ...]
    status: tuple[tuple[bool, str], ...]
    hash: bytes


def block_hash(height: int, prev_hash: bytes, txs, status) -> bytes:
    """The digest of the block's height and prev hash and of each tx's
    packed (wire, ok, reason), streamed by `codec.digest_records`."""
    return codec.digest_records(
        (height, prev_hash),
        [(tx.wire, ok, reason) for tx, (ok, reason) in zip(txs, status)])


def make_genesis() -> Block:
    return Block(0, ZERO_HASH, (), (), block_hash(0, ZERO_HASH, (), ()))


class Ledger:
    """Mempool + chain + contract dispatch, sealed by a single deterministic sealer."""

    def __init__(self, keystore: KeyStore):
        self.keystore = keystore
        self.chain: list[Block] = [make_genesis()]
        # (tx, its admission-time payload decode)
        self.mempool: list[tuple[Transaction, object]] = []
        self._contracts: dict[TxKind, object] = {}
        self._block_end: list[object] = []
        self._seen: set[bytes] = set()

    def register_contract(self, contract) -> None:
        for kind in contract.KINDS:
            if kind in self._contracts:
                raise ValueError(f"contract already registered for {kind.name}")
            self._contracts[kind] = contract
        if hasattr(contract, "on_block_end"):
            self._block_end.append(contract)

    def current_height(self) -> int:
        return self.chain[-1].height

    def submit_tx(self, tx: Transaction) -> tuple[bool, str]:
        """Structural admission into the mempool; contract checks run at sealing."""
        if not tx.id_ok:
            return False, "bad-tx-id"
        if tx.tx_id in self._seen:
            return False, "duplicate"
        if not self.keystore.verify(tx.sender, tx.tx_id, tx.signature):
            return False, "bad-signature"
        contract = self._contracts.get(tx.kind)
        if contract is None:
            return False, "no-contract"
        try:
            decoded = contract.decode_payload(tx.kind, tx.payload)
        except codec.CodecError:
            return False, MALFORMED
        self._seen.add(tx.tx_id)
        self.mempool.append((tx, decoded))
        return True, "ok"

    def seal_block(self) -> Block:
        height = self.current_height() + 1
        queued, self.mempool = self.mempool, []
        txs: list[Transaction] = []
        status: list[tuple[bool, str]] = []
        for tx, decoded in queued:
            txs.append(tx)
            status.append(self._contracts[tx.kind].apply(tx, decoded, height))
        for contract in self._block_end:
            for marker in contract.on_block_end(height):
                self._seen.add(marker.tx_id)
                txs.append(marker)
                status.append(_apply_committed(
                    self._contracts[marker.kind], marker, height))
        prev = self.chain[-1].hash
        block = Block(height, prev, tuple(txs), tuple(status),
                      block_hash(height, prev, txs, status))
        self.chain.append(block)
        return block


def _apply_committed(contract, tx: Transaction, height: int) -> tuple[bool, str]:
    """Decode a tx's payload from its bytes and apply it to its contract."""
    try:
        decoded = contract.decode_payload(tx.kind, tx.payload)
    except codec.CodecError:
        return False, MALFORMED
    return contract.apply(tx, decoded, height)


def verify_chain(chain, keystore: KeyStore | None = None) -> int | None:
    """Recompute every link; None if intact, else the lowest bad height."""
    for i, block in enumerate(chain):
        if block.height != i:
            return i
        expected_prev = ZERO_HASH if i == 0 else chain[i - 1].hash
        if block.prev_hash != expected_prev:
            return i
        if len(block.txs) != len(block.status):
            return i
        for tx in block.txs:
            if not tx.id_ok:
                return i
            # keys derive from the seed, so a keystore with the run's seed
            # checks any sender's signature; forged signatures still fail
            if keystore is not None and not keystore.verify(
                    tx.sender, tx.tx_id, tx.signature):
                return i
        if block.hash != block_hash(block.height, block.prev_hash, block.txs, block.status):
            return i
    return None


def dump_chain(chain) -> str:
    """One line per block: height, prev hash, hash, then hex tx records."""
    lines = []
    for block in chain:
        recs = ";".join(
            f"{tx.wire.hex()}:{int(ok)}:{reason.encode().hex()}"
            for tx, (ok, reason) in zip(block.txs, block.status))
        lines.append(f"{block.height} {block.prev_hash.hex()} {block.hash.hex()} {recs or '-'}\n")
    return "".join(lines)


# The characters `dump_chain` writes. `bytes.fromhex` also takes upper
# case and skips whitespace, and `int` takes surrounding whitespace.
_DUMP_CHARS = b"0123456789abcdef;:- \n"


def load_chain(text: str) -> list[Block]:
    if not text.endswith("\n"):
        raise ValueError("chain dump does not end with a newline")
    if text.encode().translate(None, _DUMP_CHARS):
        at = next(i for i, c in enumerate(text) if c.encode() not in _DUMP_CHARS)
        lineno = text.count("\n", 0, at) + 1
        raise ValueError(f"{text[at]!r} on chain line {lineno}: "
                         "not a character dump_chain writes")
    chain = []
    for lineno, line in enumerate(text[:-1].split("\n"), start=1):
        parts = line.split(" ")
        if len(parts) != 4:
            raise ValueError(f"bad chain line {lineno}")
        txs: list[Transaction] = []
        status: list[tuple[bool, str]] = []
        try:
            # `int` also takes a sign, leading zeros and other digits
            height = int(parts[0])
            if parts[0] != str(height):
                raise ValueError("non-canonical height")
            prev_hash = bytes.fromhex(parts[1])
            block_h = bytes.fromhex(parts[2])
            if parts[3] != "-":
                for rec in parts[3].split(";"):
                    tx_hex, ok_s, reason_hex = rec.split(":")
                    if ok_s != "1" and ok_s != "0":
                        raise ValueError(f"bad status {ok_s!r}")
                    txs.append(decode_tx(bytes.fromhex(tx_hex)))
                    status.append((ok_s == "1", bytes.fromhex(reason_hex).decode()))
        except ValueError as exc:
            # a tx that does not decode stays a CodecError
            refusal = codec.CodecError if isinstance(exc, codec.CodecError) else ValueError
            raise refusal(f"{exc} on chain line {lineno}") from exc
        chain.append(Block(height, prev_hash, tuple(txs), tuple(status), block_h))
    return chain


def replay_chain(chain, contracts) -> list[str]:
    """Re-apply every committed tx to fresh contracts; return outcome mismatches.

    End-of-block hooks are not re-run: their effects are fully materialized
    as the system marker txs already committed in each block.
    """
    handlers = {kind: c for c in contracts for kind in c.KINDS}
    mismatches = []
    for block in chain:
        for tx, (ok, reason) in zip(block.txs, block.status):
            handler = handlers.get(tx.kind)
            if handler is None:
                mismatches.append(f"height {block.height}: no contract for {tx.kind.name}")
                continue
            got = _apply_committed(handler, tx, block.height)
            if got != (ok, reason):
                mismatches.append(
                    f"height {block.height} tx {tx.tx_id.hex()[:8]}: "
                    f"recorded ({ok}, {reason!r}) replayed ({got[0]}, {got[1]!r})")
    return mismatches
