"""Canonical byte encoding for everything that gets hashed or signed.

All on-chain records, signed messages, and tx payloads go through `pack`
before hashing, so structurally equal values always map to identical bytes
no matter where they were built. The format is a tagged, length-prefixed
concatenation; `unpack` round-trips it exactly, and refuses what `pack`
would not produce, so one record has one encoding and one digest.

Both directions run one loop over a run of items and recurse only into a
nested list. `pack` dispatches on the exact type of each item, in the order
of their counts in the benchmark workloads' `pack` input: bytes, str, int,
bool, list or tuple, None, float. Any other type, a subclass of one of these
(such as an IntEnum) included, is refused with `CodecError`, so a caller
passes `int(kind)` or `kind.value`. `unpack` refuses with
`CodecError` a truncated item, an empty int body, an int body of another
length than `pack` gives that int (so `80` for -128, whose body is `ff80`),
a bool byte other than 00 or 01, bad utf-8, an unknown tag, and nesting too
deep for the interpreter. `pack` and `unpack` are the entry points, and
`unpack_record` calls `unpack` by its module-global name, so a wrapper
installed on those two names (as the benchmark's tracer does) sees every
packed record and every decoding. `digest` hashes `pack`'s bytes as they
are encoded, without packing the record, so its peak memory is set by its
largest item rather than by the record's length, and such a wrapper does
not see a digest's encoding.

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


def _encode_items(items, append) -> None:
    # One `append` call per scalar: `b"".join` holds a buffer record for
    # each list entry, so more entries raise the peak memory of packing a
    # long record.
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
            _encode_items(item, append)
        elif item is None:
            append(b"N")
        elif t is float:
            append(b"F" + _F64.pack(item))
        else:
            raise CodecError(f"unencodable type {t.__name__}")


def pack(*items) -> bytes:
    out: list[bytes] = []
    _encode_items(items, out.append)
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
                    v = int.from_bytes(data[start:offset], "big", signed=True)
                    if offset - start != (v.bit_length() + 8) // 8:
                        raise CodecError("non-canonical int")
                    append(v)
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
                b = data[offset]
                if b > 1:
                    raise CodecError("non-canonical bool")
                append(b == 1)
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
    """`sha(pack(*items))`, hashed as it is encoded."""
    h = hashlib.sha256()
    _encode_items(items, h.update)
    return h.digest()


def short(data: bytes) -> str:
    """8-hex-char digest used in trace lines."""
    return hashlib.sha256(data).hexdigest()[:8]
