"""Canonical byte encoding for everything that gets hashed or signed.

All on-chain records, signed messages, and tx payloads go through `pack`
before hashing, so structurally equal values always map to identical bytes
no matter where they were built. The format is a tagged, length-prefixed
concatenation; `unpack` round-trips it exactly.

Both directions run one loop over a run of items and recurse only into a
nested list. `pack` dispatches on the exact type of each item, in the order
of their counts in the benchmark workloads' `pack` input: bytes, str, int,
bool, list or tuple, None, float. An instance of a subclass of an encodable
type (`TxKind`, an IntEnum, or a str enum) matches none of these; it is found
by `isinstance` and encodes as its base type would. `unpack` refuses with
`CodecError` a truncated item, an empty int body, bad utf-8, an unknown tag,
and nesting too deep for the interpreter. `pack` and `unpack` are the entry
points: `digest` calls `pack` and `unpack_record` calls `unpack` by their
module-global names, so a wrapper installed on those two names (as the
benchmark's tracer does) sees every encoding and decoding.

No node trusts the records it is handed, so every decoder of packed data
checks one record rule before acting: a tag, a fixed number of fields, each
of a given type, else `CodecError`. `unpack_record` applies the rule to
bytes and `check_record` to an already-unpacked tuple, such as a nested
list. A shape gives one entry per field: a `str` the field must equal, or a
type or tuple of types the field must be an instance of (`object` leaves the
field unchecked; `bool` passes as `int`, as `isinstance` has it).
"""

from __future__ import annotations

import hashlib
import struct


class CodecError(ValueError):
    """Raised when bytes are not a valid canonical encoding."""


_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_HEAD = struct.Struct(">cI")    # a tag and a length
_B, _S, _I, _L, _N, _T, _F = b"BSILNTF"


def _encode_items(items, out: list[bytes]) -> None:
    # One `out` entry per scalar: `b"".join` holds a buffer record for each
    # entry, so more entries raise the peak memory of packing a long record.
    append = out.append
    head = _HEAD.pack
    for item in items:
        t = type(item)
        if t is bytes:
            append(head(b"B", len(item)) + item)
        elif t is str:
            body = item.encode()
            append(head(b"S", len(body)) + body)
        elif t is int:
            body = item.to_bytes((item.bit_length() + 8) // 8, "big", signed=True)
            append(head(b"I", len(body)) + body)
        elif t is bool:
            append(b"T\x01" if item else b"T\x00")
        elif t is list or t is tuple:
            append(head(b"L", len(item)))
            _encode_items(item, out)
        elif item is None:
            append(b"N")
        elif t is float:
            append(b"F" + _F64.pack(item))
        else:
            _encode_items((_as_base(item),), out)


def _as_base(item):
    """An instance of a subclass of an encodable type, such as `TxKind` (an
    IntEnum) or a str enum, as the equal value of its exact base type."""
    if isinstance(item, int):
        return int.__int__(item)
    if isinstance(item, float):
        return float.__float__(item)
    if isinstance(item, bytes):
        return bytes(memoryview(item))
    if isinstance(item, str):
        return str.__str__(item)
    if isinstance(item, (list, tuple)):
        return tuple(item)
    raise CodecError(f"unencodable type {type(item).__name__}")


def pack(*items) -> bytes:
    out: list[bytes] = []
    _encode_items(items, out)
    return b"".join(out)


def _decode_items(data: bytes, offset: int, count: int) -> tuple[tuple, int]:
    """Up to `count` items from `data` at `offset`, fewer only where `data`
    ends first, and the offset after them."""
    items = []
    append = items.append
    end = len(data)
    u32 = _U32.unpack_from
    try:
        for _ in range(count):
            if offset >= end:
                break
            tag = data[offset]
            offset += 1
            if tag == _B or tag == _S or tag == _I:
                start = offset + 4
                offset = start + u32(data, offset)[0]
                if offset > end:
                    raise CodecError("truncated encoding")
                if tag == _B:
                    append(data[start:offset])
                elif tag == _S:
                    append(data[start:offset].decode())
                elif offset == start:
                    raise CodecError("empty int body")
                else:
                    append(int.from_bytes(data[start:offset], "big", signed=True))
            elif tag == _L:
                n = u32(data, offset)[0]
                sub, offset = _decode_items(data, offset + 4, n)
                if len(sub) < n:
                    raise CodecError("truncated encoding")
                append(sub)
            elif tag == _N:
                append(None)
            elif tag == _T:
                if offset >= end:
                    raise CodecError("truncated encoding")
                append(data[offset] != 0)
                offset += 1
            elif tag == _F:
                append(_F64.unpack_from(data, offset)[0])
                offset += 8
            else:
                raise CodecError(f"unknown tag {bytes((tag,))!r}")
    except struct.error:
        raise CodecError("truncated encoding") from None
    except UnicodeDecodeError as exc:
        raise CodecError("bad utf-8 in string") from exc
    return tuple(items), offset


def unpack(data: bytes) -> tuple:
    try:
        return _decode_items(data, 0, len(data))[0]
    except RecursionError:
        raise CodecError("nesting too deep") from None


def check_record(fields, *shape) -> tuple:
    """`fields` if it is a tuple that matches `shape`, else CodecError."""
    if not isinstance(fields, tuple) or len(fields) != len(shape):
        raise CodecError(f"record needs {len(shape)} fields")
    for i, want in enumerate(shape):
        if isinstance(want, str):
            if fields[i] != want:
                raise CodecError(f"record field {i} is not {want!r}")
        elif not isinstance(fields[i], want):
            raise CodecError(f"record field {i} is not {want!r}")
    return fields


def unpack_record(data: bytes, *shape) -> tuple:
    """The fields of `data`, checked against `shape` by `check_record`."""
    return check_record(unpack(data), *shape)


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def digest(*items) -> bytes:
    return sha(pack(*items))


def short(data: bytes) -> str:
    """8-hex-char digest used in trace lines."""
    return hashlib.sha256(data).hexdigest()[:8]
