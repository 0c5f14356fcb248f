"""Canonical byte encoding for everything that gets hashed or signed.

All on-chain records, signed messages, and tx payloads go through `pack`
before hashing, so structurally equal values always map to identical bytes
no matter where they were built. The format is a tagged, length-prefixed
concatenation; `unpack` round-trips it exactly.

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


def _encode(item, out: list[bytes]) -> None:
    if item is None:
        out.append(b"N")
    elif item is True or item is False:
        out.append(b"T" + (b"\x01" if item else b"\x00"))
    elif isinstance(item, int):
        body = item.to_bytes((item.bit_length() + 8) // 8, "big", signed=True)
        out.append(b"I" + struct.pack(">I", len(body)) + body)
    elif isinstance(item, float):
        out.append(b"F" + struct.pack(">d", item))
    elif isinstance(item, bytes):
        out.append(b"B" + struct.pack(">I", len(item)) + item)
    elif isinstance(item, str):
        body = item.encode("utf-8")
        out.append(b"S" + struct.pack(">I", len(body)) + body)
    elif isinstance(item, (list, tuple)):
        out.append(b"L" + struct.pack(">I", len(item)))
        for sub in item:
            _encode(sub, out)
    else:
        raise CodecError(f"unencodable type {type(item).__name__}")


def pack(*items) -> bytes:
    out: list[bytes] = []
    for item in items:
        _encode(item, out)
    return b"".join(out)


def _need(data: bytes, offset: int, n: int) -> None:
    if offset + n > len(data):
        raise CodecError("truncated encoding")


def _decode(data: bytes, offset: int):
    _need(data, offset, 1)
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        _need(data, offset, 1)
        return data[offset] != 0, offset + 1
    if tag == b"F":
        _need(data, offset, 8)
        return struct.unpack(">d", data[offset:offset + 8])[0], offset + 8
    if tag in (b"I", b"B", b"S", b"L"):
        _need(data, offset, 4)
        n = struct.unpack(">I", data[offset:offset + 4])[0]
        offset += 4
        if tag == b"L":
            items = []
            for _ in range(n):
                item, offset = _decode(data, offset)
                items.append(item)
            return tuple(items), offset
        _need(data, offset, n)
        body = data[offset:offset + n]
        offset += n
        if tag == b"I":
            if not body:
                raise CodecError("empty int body")
            return int.from_bytes(body, "big", signed=True), offset
        if tag == b"B":
            return body, offset
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise CodecError("bad utf-8 in string") from exc
    raise CodecError(f"unknown tag {tag!r}")


def unpack(data: bytes) -> tuple:
    items = []
    offset = 0
    try:
        while offset < len(data):
            item, offset = _decode(data, offset)
            items.append(item)
    except RecursionError:
        raise CodecError("nesting too deep") from None
    return tuple(items)


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
