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
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    payload: bytes
    sender: str
    signature: bytes
    tx_id: bytes


def tx_digest(kind: TxKind, payload: bytes, sender: str) -> bytes:
    return codec.digest(int(kind), payload, sender)


def make_tx(keystore: KeyStore, sender: str, kind: TxKind, payload: bytes) -> Transaction:
    keystore.ensure(sender)
    txid = tx_digest(kind, payload, sender)
    return Transaction(kind, payload, sender, keystore.sign(sender, txid), txid)


def encode_tx(tx: Transaction) -> bytes:
    return codec.pack(int(tx.kind), tx.payload, tx.sender, tx.signature, tx.tx_id)


def decode_tx(data: bytes) -> Transaction:
    kind_num, payload, sender, signature, tx_id = codec.unpack_record(
        data, object, bytes, str, bytes, bytes)
    try:
        kind = TxKind(kind_num)
    except ValueError as exc:
        raise codec.CodecError(f"unknown tx kind {kind_num}") from exc
    return Transaction(kind, payload, sender, signature, tx_id)


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    txs: tuple[Transaction, ...]
    status: tuple[tuple[bool, str], ...]
    hash: bytes


def block_hash(height: int, prev_hash: bytes, txs, status) -> bytes:
    parts: list = [height, prev_hash]
    for tx, (ok, reason) in zip(txs, status):
        parts.append(codec.pack(encode_tx(tx), ok, reason))
    return codec.digest(*parts)


def make_genesis() -> Block:
    return Block(0, ZERO_HASH, (), (), block_hash(0, ZERO_HASH, (), ()))


class Ledger:
    """Mempool + chain + contract dispatch, sealed by a single deterministic sealer."""

    def __init__(self, keystore: KeyStore):
        self.keystore = keystore
        keystore.ensure(SYSTEM_SENDER)
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
        if tx.tx_id != tx_digest(tx.kind, tx.payload, tx.sender):
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
            if tx.tx_id != tx_digest(tx.kind, tx.payload, tx.sender):
                return i
            if keystore is not None:
                # keys are seed-derived, so the verifier can mint any
                # sender's key on demand; forged signatures still fail
                keystore.ensure(tx.sender)
                if not keystore.verify(tx.sender, tx.tx_id, tx.signature):
                    return i
        if block.hash != block_hash(block.height, block.prev_hash, block.txs, block.status):
            return i
    return None


def dump_chain(chain) -> str:
    """One line per block: height, prev hash, hash, then hex tx records."""
    lines = []
    for block in chain:
        recs = ";".join(
            f"{encode_tx(tx).hex()}:{int(ok)}:{reason.encode().hex()}"
            for tx, (ok, reason) in zip(block.txs, block.status))
        lines.append(f"{block.height} {block.prev_hash.hex()} {block.hash.hex()} {recs or '-'}")
    return "\n".join(lines) + "\n"


def load_chain(text: str) -> list[Block]:
    chain = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"bad chain line {lineno}")
        height = int(parts[0])
        prev_hash = bytes.fromhex(parts[1])
        block_h = bytes.fromhex(parts[2])
        txs: list[Transaction] = []
        status: list[tuple[bool, str]] = []
        if parts[3] != "-":
            for rec in parts[3].split(";"):
                tx_hex, ok_s, reason_hex = rec.split(":")
                txs.append(decode_tx(bytes.fromhex(tx_hex)))
                status.append((ok_s == "1", bytes.fromhex(reason_hex).decode()))
        chain.append(Block(height, prev_hash, tuple(txs), tuple(status), block_h))
    if not chain:
        raise ValueError("chain dump holds no blocks")
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
