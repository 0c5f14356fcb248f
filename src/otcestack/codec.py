"""Canonical byte encoding for everything that gets hashed or signed.

The format is a tagged, length-prefixed concatenation, so equal values map
to identical bytes. `pack` takes exact types only (a caller passes
`int(kind)`, not an IntEnum), and `unpack` refuses what `pack` would not
produce, so one record has one encoding and one digest.

No node trusts the records it is handed, so a decoder checks each against
a shape: one entry per field, a `str` the field must equal, a type or tuple
of types it must be exactly (`object` takes any), or `list_of(t)`.
`unpack(data, shape)` decodes and checks in one pass, and refuses as
`check_record(unpack(data), shape)` does; each caller passes a shape it
declares once, and a shape's decode plan is built once. A tracer wraps
`pack` and `unpack` by name; `digest` and `digest_records` hash without
`pack`.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from itertools import repeat


class CodecError(ValueError):
    """Raised when bytes are not a valid canonical encoding."""


_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_HEAD = struct.Struct(">cI")    # a tag and a length
_B, _S, _I, _L, _N, _T, _F = b"BSILNTF"


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


# the tag of each exact type that a tag decodes to
_TAGS = {str: _S, bytes: _B, int: _I, float: _F, tuple: _L, bool: _T,
         type(None): _N}


class _Entry(frozenset):
    """A decode-plan entry: the tags it takes, and the exact types they
    decode to; `tag`, the one tag it takes or None; `literal`, the str its
    item must equal or None; and `each`, the entry of a list's items."""

    __slots__ = ("tag", "literal", "each")

    def __new__(cls, tags, literal, each):
        entry = super().__new__(cls, [*tags, *(t for t, tag in _TAGS.items() if tag in tags)])
        entry.tag = tags[0] if len(tags) == 1 else None
        entry.literal = literal
        entry.each = each
        return entry


_ANY = _Entry(list(_TAGS.values()), None, None)     # any item, and any list of them
_ANY.each = _ANY
_ANYS = repeat(_ANY)        # the plan of a plan-less `unpack`


def _decode(data: bytes, offset: int, plan) -> tuple[tuple, int, int | None]:
    """One item of `data` per entry of `plan`, from `offset` until `data`
    ends; the offset after them; and the index of the first item that its
    entry refuses, or None. A refused item is decoded by its own tag, so
    that a decoding error past it still surfaces."""
    items = []
    append = items.append
    end = len(data)
    refused = None
    u32 = _U32.unpack_from
    for takes in plan:
        if offset >= end:
            break
        tag = data[offset]
        if takes is not _ANY and tag != takes.tag and tag not in takes and refused is None:
            refused = len(items)
        offset += 1
        if tag == _S or tag == _I or tag == _B:
            start = offset + 4
            offset = start + u32(data, offset)[0]
            if offset > end:
                raise CodecError("truncated encoding")
            if tag == _S:
                value = data[start:offset].decode()
                if takes.literal is not None and value != takes.literal and refused is None:
                    refused = len(items)
                append(value)
            elif tag == _B:
                append(data[start:offset])
            elif offset == start:
                raise CodecError("empty int body")
            else:
                v = int.from_bytes(data[start:offset], "big", signed=True)
                if offset - start != (v.bit_length() + 8) // 8:
                    raise CodecError("non-canonical int")
                append(v)
        elif tag == _L:
            n = u32(data, offset)[0]
            offset += 4
            each = takes.each
            # the items of a `list_of(str)` or `list_of(float)` are read
            # here, up to the first of another tag
            sub = ()
            if each is _STR:
                sub = []
                for _ in range(n):
                    if data[offset] != _S:
                        break
                    start = offset + 5
                    offset = start + u32(data, offset + 1)[0]
                    if offset > end:
                        raise CodecError("truncated encoding")
                    sub.append(data[start:offset].decode())
            elif each is _FLOAT:
                sub = []
                for _ in range(n):
                    if data[offset] != _F:
                        break
                    sub.append(_F64.unpack_from(data, offset + 1)[0])
                    offset += 9
            left = n - len(sub)
            if left:
                rest, offset, bad = _decode(data, offset, repeat(each, left))
                if len(rest) < left:
                    raise CodecError("truncated encoding")
                if bad is not None and refused is None:
                    refused = len(items)
                sub += rest
            append(tuple(sub))
        elif tag == _N:
            append(None)
        elif tag == _T:
            if data[offset] > 1:
                raise CodecError("non-canonical bool")
            append(data[offset] == 1)
            offset += 1
        elif tag == _F:
            append(_F64.unpack_from(data, offset)[0])
            offset += 8
        else:
            raise CodecError(f"unknown tag {bytes((tag,))!r}")
    return tuple(items), offset, refused


def unpack(data: bytes, shape: tuple | None = None) -> tuple:
    """The items of `data`; with a `shape`, `check_record(unpack(data),
    shape)` in one pass."""
    try:
        if shape is None:
            return _decode(data, 0, _ANYS)[0]
        fields, offset, refused = _decode(data, 0, _plan(shape))
        if offset < len(data):      # items past the shape's fields
            fields += _decode(data, offset, _ANYS)[0]
    except (IndexError, struct.error):      # a read past the end
        raise CodecError("truncated encoding") from None
    except UnicodeDecodeError as exc:
        raise CodecError("bad utf-8 in string") from exc
    except RecursionError:
        raise CodecError("nesting too deep") from None
    if len(fields) != len(shape):
        raise CodecError(f"record needs {len(shape)} fields")
    if refused is not None:
        raise CodecError(f"record field {refused} is not {_noun(shape[refused])}")
    return fields


class _ListOf(type):
    """The class of `list_of`'s entries: an instance check of one passes a
    tuple whose items are all of type `item` exactly, as decoded items are."""

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


@functools.cache
def _entry(want) -> _Entry:
    """The decode-plan entry of the shape entry `want`."""
    if want.__class__ is str:
        return _Entry((_S,), want, _ANY)
    if want.__class__ is _ListOf:
        return _Entry((_L,), None, _entry(want.item))
    if want is object or want.__class__ is tuple and object in want:
        return _ANY
    if want.__class__ is tuple:
        return _Entry([_TAGS[w] for w in want if w in _TAGS], None, _ANY)
    return _Entry((_TAGS[want],) if want in _TAGS else (), None, _ANY)


_STR, _FLOAT = _entry(str), _entry(float)


@functools.cache
def _plan(shape: tuple) -> tuple:
    """The decode-plan entries of `shape`, built once per shape."""
    return tuple(map(_entry, shape))


def _noun(want) -> str:
    """A shape entry as a refusal names it: 'create', an int, a str or a bytes."""
    if isinstance(want, str):
        return repr(want)
    if isinstance(want, tuple):
        return " or ".join(map(_noun, want))
    name = want.__name__
    return f"{'an' if name[0] in 'aeiou' else 'a'} {name}"


# the shape of a (name, bytes) pair: a certificate's (voter, signature), a
# result's (signer, signature) and an identifier's (attribute, value)
PAIR = (str, bytes)


def check_record(fields, shape: tuple) -> tuple:
    """`fields` if it is a tuple that matches `shape`, else CodecError."""
    if not isinstance(fields, tuple) or len(fields) != len(shape):
        raise CodecError(f"record needs {len(shape)} fields")
    for i, takes in enumerate(_plan(shape)):
        value = fields[i]
        if takes is not _ANY and (
                value.__class__ not in takes
                or takes.literal is not None and value != takes.literal
                or takes.each is not _ANY and any(v.__class__ not in takes.each for v in value)):
            raise CodecError(f"record field {i} is not {_noun(shape[i])}")
    return fields


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
