"""The codec against a plain recursive reference: the same bytes out of
`pack`, and out of `unpack` the same values or the same refusal, except
that `unpack` refuses bytes that `pack` would not produce."""

import math
import random
import struct

import pytest

from otcestack import codec
from otcestack.consensus import MsgKind
from otcestack.ledger import TxKind
from otcestack.otce import OTCEState

# -- reference: one recursive call per item -----------------------------------


def ref_encode(item, out):
    t = type(item)
    if item is None:
        out.append(b"N")
    elif t is bool:
        out.append(b"T" + (b"\x01" if item else b"\x00"))
    elif t is int:
        body = item.to_bytes((item.bit_length() + 8) // 8, "big", signed=True)
        out.append(b"I" + struct.pack(">I", len(body)) + body)
    elif t is float:
        out.append(b"F" + struct.pack(">d", item))
    elif t is bytes:
        out.append(b"B" + struct.pack(">I", len(item)) + item)
    elif t is str:
        body = item.encode("utf-8")
        out.append(b"S" + struct.pack(">I", len(body)) + body)
    elif t is list or t is tuple:
        out.append(b"L" + struct.pack(">I", len(item)))
        for sub in item:
            ref_encode(sub, out)
    else:
        raise codec.CodecError(f"unencodable type {t.__name__}")


def ref_pack(*items):
    out = []
    for item in items:
        ref_encode(item, out)
    return b"".join(out)


def ref_need(data, offset, n):
    if offset + n > len(data):
        raise codec.CodecError("truncated encoding")


def ref_decode(data, offset):
    ref_need(data, offset, 1)
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        ref_need(data, offset, 1)
        return data[offset] != 0, offset + 1
    if tag == b"F":
        ref_need(data, offset, 8)
        return struct.unpack(">d", data[offset:offset + 8])[0], offset + 8
    if tag in (b"I", b"B", b"S", b"L"):
        ref_need(data, offset, 4)
        n = struct.unpack(">I", data[offset:offset + 4])[0]
        offset += 4
        if tag == b"L":
            items = []
            for _ in range(n):
                item, offset = ref_decode(data, offset)
                items.append(item)
            return tuple(items), offset
        ref_need(data, offset, n)
        body = data[offset:offset + n]
        offset += n
        if tag == b"I":
            if not body:
                raise codec.CodecError("empty int body")
            return int.from_bytes(body, "big", signed=True), offset
        if tag == b"B":
            return body, offset
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise codec.CodecError("bad utf-8 in string") from exc
    raise codec.CodecError(f"unknown tag {tag!r}")


def ref_unpack(data):
    items = []
    offset = 0
    try:
        while offset < len(data):
            item, offset = ref_decode(data, offset)
            items.append(item)
    except RecursionError:
        raise codec.CodecError("nesting too deep") from None
    return tuple(items)


# -- seeded values ---------------------------------------------------------------

INTS = (0, 1, -1, 127, 128, -128, -129, 255, 256, 2**31, 2**63, -2**63,
        2**70, -2**70, 2**70 - 1, -2**70 + 1)
FLOATS = (0.0, -0.0, 1.5, -2.5e-300, math.inf, -math.inf, math.nan)
STRS = ("", "a", "create", "é世", "\U0001f600", "n\x00ul")


def random_value(rng, depth=0):
    kind = rng.randrange(10 if depth < 4 else 8)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice(INTS) + rng.choice((0, 0, rng.randrange(-3, 4)))
    if kind == 3:
        return rng.randrange(-2**80, 2**80) >> rng.randrange(0, 80)
    if kind == 4:
        return rng.choice(FLOATS) if rng.random() < 0.3 else rng.uniform(-1e9, 1e9)
    if kind == 5:
        return rng.randbytes(rng.choice((0, 1, 8, 32, 64)))
    if kind == 6:
        return rng.choice(STRS)
    if kind == 7:
        return "".join(chr(rng.randrange(1, 0x3000)) for _ in range(rng.randrange(0, 8)))
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    return items if kind == 8 else tuple(items)


def test_pack_gives_the_reference_bytes():
    rng = random.Random(5150)
    seen = set()
    for _ in range(2500):
        items = [random_value(rng) for _ in range(rng.randrange(1, 6))]
        seen.update(type(item) for item in items)
        assert codec.pack(*items) == ref_pack(*items), items
    assert {type(None), bool, int, float, bytes, str, list, tuple} <= seen


def test_digest_is_the_sha_of_the_packed_record():
    # `digest` streams the encoding into the hash without packing it
    rng = random.Random(5151)
    for _ in range(2500):
        items = [random_value(rng) for _ in range(rng.randrange(1, 6))]
        assert codec.digest(*items) == codec.sha(codec.pack(*items)), items


def test_pack_refuses_what_the_reference_refuses():
    # exact types only: an enum member is refused like any other subclass
    for bad in (bytearray(b"x"), {1: 2}, {1}, 1j, object(), [1, [memoryview(b"")]],
                TxKind.CREATE_OTCE, MsgKind.PREPARE, OTCEState.RUNNING):
        for fn in (codec.pack, codec.digest, ref_pack):
            try:
                fn("a", bad)
            except codec.CodecError as exc:
                assert "unencodable type" in str(exc)
            else:
                raise AssertionError(f"{fn.__name__} took {bad!r}")


# -- the same values or the same refusal ---------------------------------------


def outcome(unpack, data):
    """The decoded items as the reference encodes them (which tells apart
    -0.0 and 0.0, and NaN from itself), or the refusal's message."""
    try:
        return "ok", ref_pack(*unpack(data))
    except codec.CodecError as exc:
        return "refused", str(exc)


def mutations(rng, data):
    n = len(data)
    for cut in range(n):
        yield data[:cut]
    for _ in range(20):
        i = rng.randrange(n)
        yield data[:i] + bytes((data[i] ^ rng.randrange(1, 256),)) + data[i + 1:]
    for _ in range(4):
        yield data + rng.randbytes(rng.randrange(1, 6))
    for tag in b"NTIFBSLZ\x00":
        yield data + bytes((tag,))
    for i in range(n):
        yield data[:i] + b"Z" + data[i + 1:]
    for i in range(n - 3):
        past = n - i - 4 + 1                 # one byte more than is left
        for length in (past, 0xFFFFFFFF):
            yield data[:i] + struct.pack(">I", length) + data[i + 4:]


DEEP = (bytes.fromhex("4c00000001" * 5000),
        bytes.fromhex("4c00000001" * 5000) + b"N",
        bytes.fromhex("4c00000002" * 5000),
        bytes.fromhex("4c00000001" * 5000)[:-1])


NONCANONICAL = {b"T": "non-canonical bool", b"I": "non-canonical int"}


class _Found(Exception):
    pass


def first_noncanonical(data):
    """The refusal for the first item of `data`, in decoding order, that the
    reference decodes but `ref_pack` would encode as other bytes; None when
    the reference refuses or runs out of data before any such item."""
    def walk(offset):
        if data[offset:offset + 1] == b"L":
            ref_need(data, offset + 1, 4)
            n = struct.unpack(">I", data[offset + 1:offset + 5])[0]
            offset += 5
            for _ in range(n):
                offset = walk(offset)
            return offset
        item, end = ref_decode(data, offset)
        if ref_pack(item) != data[offset:end]:
            raise _Found(NONCANONICAL[data[offset:offset + 1]])
        return end

    offset = 0
    try:
        while offset < len(data):
            offset = walk(offset)
    except _Found as found:
        return str(found)
    except (codec.CodecError, RecursionError):
        pass
    return None


def test_unpack_matches_the_reference_on_mutated_records():
    """Canonical bytes decode as the reference decodes them. Bytes the
    reference decodes to a record that packs otherwise are refused as
    non-canonical. A reference refusal stays a refusal with the same
    message, unless a non-canonical item comes first."""
    rng = random.Random(8086)
    cases = {"canonical": 0, "non-canonical": 0, "refused": 0,
             "non-canonical first": 0}
    messages = set()
    samples = [codec.pack(*[random_value(rng) for _ in range(rng.randrange(1, 6))])
               for _ in range(120)]
    for data in [m for s in samples for m in mutations(rng, s)] + list(DEEP):
        got = outcome(codec.unpack, data)
        ref = outcome(ref_unpack, data)
        found = first_noncanonical(data)
        if ref == ("ok", data):
            case, want = "canonical", ref
        elif ref[0] == "ok":
            assert found is not None, data.hex()
            case, want = "non-canonical", ("refused", found)
        elif found is None:
            case, want = "refused", ref
        else:
            case, want = "non-canonical first", ("refused", found)
        assert got == want, (case, data.hex())
        cases[case] += 1
        if got[0] == "refused":
            messages.add("unknown tag" if got[1].startswith("unknown tag ") else got[1])
    assert cases["canonical"] > 1000 and cases["refused"] > 1000, cases
    assert cases["non-canonical"] > 50 and cases["non-canonical first"] > 20, cases
    assert messages == {"truncated encoding", "empty int body", "bad utf-8 in string",
                        "unknown tag", "nesting too deep", "non-canonical bool",
                        "non-canonical int"}


@pytest.mark.parametrize("data", ["5405", "4900000002" "0001", "4900000002" "ffff",
                                  "4900000001" "80", "5402"])
def test_non_canonical_bytes_are_refused(data):
    with pytest.raises(codec.CodecError, match="non-canonical"):
        codec.unpack(bytes.fromhex(data))


def test_pinned_vector_covers_every_tag():
    # N, T (both values), I (zero, negative, two-byte, 2**70), F (-0.0 too),
    # B and S (empty too, and non-ASCII), L (nested and empty)
    items = (None, True, False, 0, -1, 255, -(2**70), 1.5, -0.0, b"", b"\x00\xff",
             "", "é世", [7, ["x", b"y"]], ())
    vector = bytes.fromhex(
        "4e540154004900000001004900000001ff490000000200ff4900000009c0000000"
        "0000000000463ff800000000000046800000000000000042000000004200000002"
        "00ff53000000005300000005c3a9e4b8964c000000024900000001074c00000002"
        "5300000001784200000001794c00000000")
    assert codec.pack(*items) == vector
    assert codec.unpack(vector) == (None, True, False, 0, -1, 255, -(2**70), 1.5, -0.0,
                                    b"", b"\x00\xff", "", "é世", (7, ("x", b"y")), ())
