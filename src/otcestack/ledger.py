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

A tx is encoded, and its id checked, once, when it is built: a
`Transaction` carries its canonical bytes (`wire`) and whether its id is
the digest of its kind, payload and sender (`id_ok`). Admission, sealing,
verification and the dump read these instead of packing the tx again;
the tx is frozen, and `dataclasses.replace` rebuilds both. `make_tx`
packs a tx's head (kind, payload, sender) once, for both its id and its
wire, and hashes it once: the id it derives is the head's digest, so it
does not check that again. A tx loaded from a dump keeps the bytes it
was decoded from as its wire: `decode_tx` refuses non-canonical bytes, so
they are the bytes a re-pack would give.

A dump has one text per chain: `load_chain` refuses any character
`dump_chain` never writes (upper-case hex, `#`, tabs, `\r`), a text that
does not end with a newline, a line that is not four fields split by
single spaces (a blank line, leading or trailing spaces, runs of spaces),
a height not written as `str(int(h))` and a status token other than `0`
or `1`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class Transaction:
    kind: TxKind
    payload: bytes
    sender: str
    signature: bytes
    tx_id: bytes
    # the packed five fields above, and whether `tx_id` is the digest of
    # their head (kind, payload, sender); set from the fields in
    # __post_init__, or by `_built_tx` for make_tx and decode_tx
    wire: bytes = field(init=False, compare=False, repr=False)
    id_ok: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        head = codec.pack(int(self.kind), self.payload, self.sender)
        object.__setattr__(self, "wire", head + codec.pack(self.signature, self.tx_id))
        object.__setattr__(self, "id_ok", codec.sha(head) == self.tx_id)


def _built_tx(kind: TxKind, payload: bytes, sender: str, signature: bytes,
              tx_id: bytes, wire: bytes, id_ok: bool) -> Transaction:
    """A `Transaction` of these fields whose wire and id check are known."""
    tx = object.__new__(Transaction)
    setattr_ = object.__setattr__
    setattr_(tx, "kind", kind)
    setattr_(tx, "payload", payload)
    setattr_(tx, "sender", sender)
    setattr_(tx, "signature", signature)
    setattr_(tx, "tx_id", tx_id)
    setattr_(tx, "wire", wire)
    setattr_(tx, "id_ok", id_ok)
    return tx


def make_tx(keystore: KeyStore, sender: str, kind: TxKind, payload: bytes) -> Transaction:
    head = codec.pack(int(kind), payload, sender)
    txid = codec.sha(head)
    signature = keystore.sign(sender, txid)
    return _built_tx(kind, payload, sender, signature, txid,
                     head + codec.pack(signature, txid), True)


def decode_tx(data: bytes) -> Transaction:
    kind_num, payload, sender, signature, tx_id = codec.unpack_record(
        data, object, bytes, str, bytes, bytes)
    # Exactly an int, not a bool or a float: a tx's hash and signature cover
    # the kind as `int(kind)`, so `T\x01` would verify in place of kind 1 and
    # give one chain a second dump.
    if type(kind_num) is not int:
        raise codec.CodecError(f"tx kind {kind_num!r} is not an int")
    try:
        kind = TxKind(kind_num)
    except ValueError as exc:
        raise codec.CodecError(f"unknown tx kind {kind_num}") from exc
    # `data` is canonical, so it is the tx's wire, and its head is all of
    # it but the trailing `pack(signature, tx_id)`: two 5-byte item heads
    head = data[:len(data) - 10 - len(signature) - len(tx_id)]
    return _built_tx(kind, payload, sender, signature, tx_id, data,
                     codec.sha(head) == tx_id)


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    prev_hash: bytes
    txs: tuple[Transaction, ...]
    status: tuple[tuple[bool, str], ...]
    hash: bytes


def block_hash(height: int, prev_hash: bytes, txs, status) -> bytes:
    parts: list = [height, prev_hash]
    for tx, (ok, reason) in zip(txs, status):
        parts.append(codec.pack(tx.wire, ok, reason))
    return codec.digest(*parts)


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
        # `int` also takes a sign, leading zeros and other digits
        height = int(parts[0])
        if parts[0] != str(height):
            raise ValueError(f"non-canonical height on chain line {lineno}")
        prev_hash = bytes.fromhex(parts[1])
        block_h = bytes.fromhex(parts[2])
        txs: list[Transaction] = []
        status: list[tuple[bool, str]] = []
        if parts[3] != "-":
            for rec in parts[3].split(";"):
                tx_hex, ok_s, reason_hex = rec.split(":")
                if ok_s != "1" and ok_s != "0":
                    raise ValueError(f"bad status {ok_s!r} on chain line {lineno}")
                txs.append(decode_tx(bytes.fromhex(tx_hex)))
                status.append((ok_s == "1", bytes.fromhex(reason_hex).decode()))
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
