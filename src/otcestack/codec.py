"""Canonical byte encoding for everything that gets hashed or signed.

All on-chain records, signed messages, and tx payloads go through `pack`
before hashing, so structurally equal values always map to identical bytes
no matter where they were built. The format is a tagged, length-prefixed
concatenation; `unpack` round-trips it exactly, and refuses what `pack`
would not produce, so one record has one encoding and one digest.

Both directions run one loop over a run of items and recurse only into a
nested list. `pack` dispatches on the exact type of each item, in the order
of their counts in the benchmark workloads' `pack` input: bytes, str, int,
bool, list or tuple, None, float. Any other type, a subclass of one of
these (such as an IntEnum) included, is refused with `CodecError`, so a
caller passes `int(kind)` or `kind.value`. An int in `SMALL_INT_RANGE`,
-1 to 255 (the views, ballots, member indices and -1 sentinels of every
consensus message), takes its bytes from a table that `pack` fills once
at import by the general rule, so they are the rule's bytes; the table is
fixed, not a cache that grows with the ints packed. `unpack` refuses with
`CodecError` a truncated item, an empty int body, an int body of another
length than `pack` gives that int (so `80` for -128, whose body is `ff80`),
a bool byte other than 00 or 01, bad utf-8, an unknown tag, and nesting too
deep for the interpreter. `pack` and `unpack` are the entry points, and
`unpack_record` calls `unpack` by its module-global name, so a wrapper
installed on those two names (as the benchmark's tracer does) sees every
packed record and every decoding. `digest` hashes `pack`'s bytes as they
are encoded, without packing the record, so its peak memory is set by its
largest item rather than by the record's length, and such a wrapper does
not see a digest's encoding. `digest_records(head, records)` is
`digest(*head, *[pack(*r) for r in records])` streamed the same way: a
(bytes, bool, str) record, a committed tx's wire and status, goes into the
hash as its item heads around the wire, which is never copied, and any
other record is packed by `pack`. A block's hash is one such call, so a
`pack` wrapper no longer sees block hashing.

No node trusts the records it is handed, so every decoder of packed data
checks one record rule before acting: a tag, a fixed number of fields, each
of a given type, else `CodecError`. `unpack_record` applies the rule to
bytes and `check_record` to an already-unpacked tuple, such as a nested
list. A shape gives one entry per field: a `str` the field must equal, a
type or tuple of types the field must be an instance of (`object` leaves the
field unchecked), or `list_of(t)`, a list whose items are all of type `t`,
itself a type whose instance check says so. A bool is no `int`, though
`isinstance` has it so: only a `bool` or `object` entry takes one.

`unpack_record(data, *shape)` is `unpack(data, shape)`, which decodes and
checks in one pass, from a plan compiled once per shape (shapes are
module constants): one opcode per entry, with the tag its field must
have. Each field's tag is checked before the field's body is read, since
a tag fixes the type of what it decodes to. Literal, `str`, `bytes` and
`int` fields are decoded inline, and so are the items of a `list_of(str)`
or `list_of(float)` field; the items of any other `list_of(t)` go through
the generic decoder, each tag checked against `t`. Any other entry takes
the generic decoder and then an instance check. A record refused by the
check is decoded again in full and checked by `check_record`, so its
refusal and message are the ones `check_record(unpack(data), *shape)` gives.
"""

from __future__ import annotations

import functools
import hashlib
import struct


class CodecError(ValueError):
    """Raised when bytes are not a valid canonical encoding."""


class _Mismatch(Exception):
    """A field or list item whose tag its shape entry does not take."""


_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_HEAD = struct.Struct(">cI")    # a tag and a length
_B, _S, _I, _L, _N, _T, _F = b"BSILNTF"
# the tag of the values each type entry takes
_TAGS = {str: b"S", bytes: b"B", int: b"I", float: b"F", tuple: b"L",
         bool: b"T", type(None): b"N"}


# int -> its encoding, for each int in SMALL_INT_RANGE; filled once at import
# by the general rule of `_encode_items` (see below `pack`)
SMALL_INT_RANGE = range(-1, 256)
_SMALL_INTS: dict[int, bytes] = {}


def _encode_items(items, append) -> None:
    # One `append` call per scalar: `b"".join` holds a buffer record for
    # each list entry, so more entries raise the peak memory of packing a
    # long record.
    head = _HEAD.pack
    small = _SMALL_INTS.get
    for item in items:
        t = type(item)
        if t is bytes:
            append(head(b"B", len(item)) + item)
        elif t is str:
            body = item.encode()
            append(head(b"S", len(body)) + body)
        elif t is int:
            packed = small(item)
            if packed is None:
                body = item.to_bytes((item.bit_length() + 8) // 8, "big", signed=True)
                packed = head(b"I", len(body)) + body
            append(packed)
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


# packed while the table is still empty, so by the general rule
_SMALL_INTS.update([(i, pack(i)) for i in SMALL_INT_RANGE])


def _decode_items(data: bytes, offset: int, count: int,
                  item: type | None = None) -> tuple[tuple, int]:
    """Up to `count` items from `data` at `offset`, fewer only where `data`
    ends first, and the offset after them; with an `item` type, each item's
    tag is checked against it before the item's body is read."""
    tags = None if item is None else _TAGS[item]
    items = []
    append = items.append
    end = len(data)
    u32 = _U32.unpack_from
    try:
        for _ in range(count):
            if offset >= end:
                break
            tag = data[offset]
            if tags is not None and tag not in tags:
                raise _Mismatch
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


def unpack(data: bytes, shape: tuple | None = None) -> tuple:
    """The items of `data`; with a `shape`, `check_record(unpack(data),
    *shape)` in one pass."""
    try:
        if shape is None:
            return _decode_items(data, 0, len(data))[0]
        return _decode_record(data, shape)
    except RecursionError:
        raise CodecError("nesting too deep") from None


# decode-plan opcodes, one per shape entry (see `_plan`)
_LIT, _STR, _BYTES, _INT, _STRS, _FLOATS, _LIST, _ANY = range(8)


@functools.cache
def _plan(shape: tuple) -> tuple:
    """One (opcode, tag, argument) per entry of `shape`, built once per
    shape: the tag its field must have, and what the opcode reads (the
    literal, the item type of a `list_of`, or the entry)."""
    plan = []
    for want in shape:
        if want.__class__ is str:
            plan.append((_LIT, _S, want))
        elif want is str:
            plan.append((_STR, _S, want))
        elif want is bytes:
            plan.append((_BYTES, _B, want))
        elif want is int:
            plan.append((_INT, _I, want))
        elif want.__class__ is _ListOf:
            item = want.item
            op = _STRS if item is str else _FLOATS if item is float else _LIST
            plan.append((op, _L, item))
        else:
            plan.append((_ANY, None, want))
    return tuple(plan)


def _decode_record(data: bytes, shape: tuple) -> tuple:
    """The fields of `data`, each field's tag checked against its entry in
    `shape` before its body is read."""
    fields = []
    append = fields.append
    end = len(data)
    offset = 0
    u32 = _U32.unpack_from
    f64 = _F64.unpack_from
    try:
        for op, want_tag, want in _plan(shape):
            if offset >= end:
                break
            tag = data[offset]
            if tag != want_tag:
                if op != _ANY:
                    raise _Mismatch
                items, offset = _decode_items(data, offset, 1)
                if not isinstance(items[0], want) or (items[0].__class__ is bool
                                                      and not _takes_bool(want)):
                    raise _Mismatch
                append(items[0])
                continue
            if op <= _INT:
                # a literal or a str, bytes or int: a length, then a body
                start = offset + 5
                offset = start + u32(data, offset + 1)[0]
                if offset > end:
                    raise CodecError("truncated encoding")
                if op == _BYTES:
                    append(data[start:offset])
                elif op != _INT:
                    value = data[start:offset].decode()
                    if op == _LIT and value != want:
                        raise _Mismatch
                    append(value)
                elif offset == start:
                    raise CodecError("empty int body")
                else:
                    v = int.from_bytes(data[start:offset], "big", signed=True)
                    if offset - start != (v.bit_length() + 8) // 8:
                        raise CodecError("non-canonical int")
                    append(v)
                continue
            # a `list_of` field
            n = u32(data, offset + 1)[0]
            offset += 5
            if op == _LIST:
                items, offset = _decode_items(data, offset, n, want)
                if len(items) < n:
                    raise CodecError("truncated encoding")
                append(items)
                continue
            # a `list_of(str)` or `list_of(float)`: its items decoded here
            items = []
            for _ in range(n):
                if offset >= end:
                    raise CodecError("truncated encoding")
                if op == _FLOATS:
                    if data[offset] != _F:
                        raise _Mismatch
                    items.append(f64(data, offset + 1)[0])
                    offset += 9
                    continue
                if data[offset] != _S:
                    raise _Mismatch
                start = offset + 5
                offset = start + u32(data, offset + 1)[0]
                if offset > end:
                    raise CodecError("truncated encoding")
                items.append(data[start:offset].decode())
            append(tuple(items))
    except struct.error:
        raise CodecError("truncated encoding") from None
    except UnicodeDecodeError as exc:
        raise CodecError("bad utf-8 in string") from exc
    except _Mismatch:
        pass
    else:
        if len(fields) == len(shape) and offset == end:
            return tuple(fields)
    # refused: decode it all, so the refusal is the one `check_record` gives
    return check_record(_decode_items(data, 0, end)[0], *shape)


def _noun(want) -> str:
    """A shape entry as a refusal names it: 'create', an int, a str or a bytes."""
    if isinstance(want, str):
        return repr(want)
    if isinstance(want, tuple):
        return " or ".join(map(_noun, want))
    name = want.__name__
    return f"{'an' if name[0] in 'aeiou' else 'a'} {name}"


def _takes_bool(want) -> bool:
    """Whether the type entry `want`, or a tuple of them, takes a bool:
    only `bool` and `object` do, though `isinstance` counts a bool as an
    `int` too."""
    if want.__class__ is tuple:
        return any(map(_takes_bool, want))
    return want is bool or want is object


class _ListOf(type):
    """The class of `list_of`'s entries: an instance check of one passes a
    tuple whose items are all of type `item` exactly, as decoded items are,
    so a list of ints takes no bool."""

    def __instancecheck__(cls, value) -> bool:
        item = cls.item
        return isinstance(value, tuple) and all(v.__class__ is item for v in value)


@functools.cache
def list_of(item: type) -> type:
    """The shape entry of a list whose items are all of type `item`, one of
    the types a tag decodes to."""
    if item not in _TAGS:
        raise TypeError(f"no tag decodes to {item!r}")
    return _ListOf(f"list of {item.__name__}", (), {"item": item})


def check_record(fields, *shape) -> tuple:
    """`fields` if it is a tuple that matches `shape`, else CodecError."""
    if not isinstance(fields, tuple) or len(fields) != len(shape):
        raise CodecError(f"record needs {len(shape)} fields")
    for i, want in enumerate(shape):
        value = fields[i]
        if isinstance(want, str):
            if value != want:
                raise CodecError(f"record field {i} is not {_noun(want)}")
        elif not isinstance(value, want) or value.__class__ is bool and not _takes_bool(want):
            raise CodecError(f"record field {i} is not {_noun(want)}")
    return fields


def unpack_record(data: bytes, *shape) -> tuple:
    """The fields of `data`, checked against `shape` as `check_record`
    checks them, while they are decoded."""
    return unpack(data, shape)


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def digest(*items) -> bytes:
    """`sha(pack(*items))`, hashed as it is encoded."""
    h = hashlib.sha256()
    _encode_items(items, h.update)
    return h.digest()


def digest_records(head: tuple, records) -> bytes:
    """`digest(*head, *[pack(*r) for r in records])`, hashed as it is
    encoded: a (bytes, bool, str) record, a committed tx's wire and
    status, is written straight into the hash, its items' heads around its
    wire, so the wire is never copied; a record of any other length or
    types is packed by `pack`."""
    h = hashlib.sha256()
    update = h.update
    _encode_items(head, update)
    item_head = _HEAD.pack
    for record in records:
        if len(record) == 3:
            wire, ok, reason = record
            if type(wire) is bytes and type(ok) is bool and type(reason) is str:
                body = reason.encode()
                # the packed record is its wire's 5-byte head and body, a
                # 2-byte bool and the reason's 5-byte head and body
                update(item_head(b"B", 12 + len(wire) + len(body))
                       + item_head(b"B", len(wire)))
                update(wire)
                update((b"T\x01" if ok else b"T\x00") + item_head(b"S", len(body)) + body)
                continue
        packed = pack(*record)
        update(item_head(b"B", len(packed)) + packed)
    return h.digest()


def short(data: bytes) -> str:
    """8-hex-char digest used in trace lines."""
    return hashlib.sha256(data).hexdigest()[:8]
