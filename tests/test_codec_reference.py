"""The codec against a plain recursive reference: the same bytes out of
`pack`, and out of `unpack` the same values or the same refusal, except
that `unpack` refuses bytes that `pack` would not produce. The streamed
`digest_records`, and the `block_hash` built on it, against the two
stages they replace, `digest` of each record's `pack`. And the one-pass
`unpack(data, shape)` against its two passes, `check_record` applied to
`unpack`'s items: the same fields or the same refusal."""

import functools
import math
import random
import struct

import pytest

from otcestack import codec
from otcestack.consensus import MsgKind
from otcestack.did import DIDRegistry
from otcestack.keys import KeyStore
from otcestack.ledger import ZERO_HASH, TxKind, block_hash, decode_tx, make_genesis, make_tx
from otcestack.otce import OTCERegistry, OTCEState

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


def test_small_int_table_holds_the_reference_bytes_and_stays_fixed():
    table = codec._SMALL_INTS
    ints = codec.SMALL_INT_RANGE
    assert sorted(table) == list(ints)
    for i in range(ints.start - 2, ints.stop + 2):
        assert codec.pack(i) == ref_pack(i), i
        assert codec.pack("a", [i, (i,)], i) == ref_pack("a", [i, (i,)], i), i
        assert codec.digest(i) == codec.sha(ref_pack(i)), i
    # a bool keeps its own tag, though True == 1 and False == 0 as keys
    assert codec.pack(True, False, 1, 0) == ref_pack(True, False, 1, 0)
    assert codec.pack(True)[:1] == codec.pack(False)[:1] == b"T"
    rng = random.Random(257)
    for _ in range(2000):
        i = rng.randrange(-2**70, 2**70) >> rng.randrange(0, 70)
        assert codec.pack(i) == ref_pack(i), i
    assert len(table) == len(ints)


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


# -- streamed record digests against the two stages ------------------------------

REASONS = ("", "ok", "malformed-payload", "é世\U0001f600", "r" * 70000)


def two_stage(head, records):
    return codec.digest(*head, *[codec.pack(*record) for record in records])


def random_record(rng):
    """A committed tx's (wire, ok, reason), now and then with `ok` as an int
    or another first item, which `digest_records` hands to `pack`."""
    wire = rng.randbytes(rng.choice((0, 1, 40, 300, 70000)))
    ok = rng.random() < 0.5
    roll = rng.random()
    if roll < 0.15:
        ok = int(ok)
    elif roll < 0.25:
        wire = rng.choice(("wire", 7, [wire], None))
    return wire, ok, rng.choice(REASONS)


def test_digest_records_is_the_digest_of_each_packed_record():
    rng = random.Random(3232)
    kinds = set()
    for _ in range(300):
        head = (rng.randrange(0, 2**40), rng.randbytes(32))
        records = [random_record(rng) for _ in range(rng.choice((0, 1, 2, 5, 30)))]
        kinds.update((type(w), type(ok)) for w, ok, _ in records)
        assert codec.digest_records(head, records) == two_stage(head, records), records
    assert {(bytes, bool), (bytes, int), (str, bool)} <= kinds
    # records of other lengths, and of no record, are packed as they are
    for records in ([], [()], [(b"w", True)], [(b"w", True, "r", 0)],
                    [(b"w", True, "r"), ("w",), (b"", False, "")]):
        assert codec.digest_records((1, b"p"), records) == two_stage((1, b"p"), records)


def test_digest_records_refuses_what_pack_refuses():
    for record in ((bytearray(b"w"), True, "r"), (b"w", 1.5j, "r"), (b"w", True, {})):
        with pytest.raises(codec.CodecError, match="unencodable type"):
            codec.digest_records((1, b"p"), [(b"w", True, "ok"), record])


def test_block_hash_is_the_digest_of_each_packed_record():
    rng = random.Random(3233)
    keys = KeyStore(5)
    txs = [make_tx(keys, "alice", TxKind(rng.randrange(1, 8)),
                   rng.randbytes(rng.randrange(0, 400))) for _ in range(40)]
    genesis = make_genesis()
    assert genesis.hash == block_hash(0, ZERO_HASH, (), ()) == codec.digest(0, ZERO_HASH)
    for _ in range(200):
        height, prev = rng.randrange(1, 10**6), rng.randbytes(32)
        block_txs = rng.sample(txs, rng.choice((0, 1, 3, 40)))
        status = [(rng.choice((True, False, 1, 0)), rng.choice(REASONS)) for _ in block_txs]
        want = codec.digest(height, prev, *[codec.pack(tx.wire, ok, reason)
                                            for tx, (ok, reason) in zip(block_txs, status)])
        assert block_hash(height, prev, block_txs, status) == want


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


# -- one-pass record decoding against the two passes ---------------------------


def package_shapes():
    """Each shape the package's decoders pass to `unpack`, recorded by
    feeding every decoder an empty record."""
    shapes = []
    real = codec.unpack

    def record(data, shape=None):
        shapes.append(shape)
        return real(data, shape)

    registry = OTCERegistry(KeyStore(1))
    dids = DIDRegistry()
    codec.unpack = record
    try:
        for decode in [decode_tx] + [
                functools.partial(contract.decode_payload, kind)
                for contract in (registry, dids) for kind in sorted(contract.KINDS)]:
            with pytest.raises(codec.CodecError):
                decode(b"")
    finally:
        codec.unpack = real
    return list(dict.fromkeys(shapes))


GROUP, TRUST = codec.list_of(str), codec.list_of(float)
SCALARS = (str, bytes, int, float, bool, type(None), tuple)
ENTRIES = (SCALARS + (object, (bytes, type(None)), (str, int))
           + tuple(codec.list_of(t) for t in SCALARS) + STRS[:3])


def random_shape(rng):
    return tuple(rng.choice(ENTRIES) for _ in range(rng.randrange(1, 6)))


def value_for(rng, want):
    """A value that `want` takes, or now and then any value."""
    if rng.random() < 0.15:
        return random_value(rng)
    if isinstance(want, str):
        return want
    if isinstance(want, tuple):
        want = rng.choice(want)
    if isinstance(want, codec._ListOf):
        return [value_for(rng, want.item) for _ in range(rng.randrange(0, 5))]
    while True:
        value = random_value(rng)
        if want is tuple and isinstance(value, list) or isinstance(value, want):
            return value


def record_outcome(decode, data, shape):
    """`outcome` of one record decode: the fields as the reference encodes
    them, or the refusal's message."""
    try:
        return "ok", ref_pack(*decode(data, shape))
    except codec.CodecError as exc:
        return "refused", str(exc)


def one_pass(data, shape):
    return codec.unpack(data, shape)


def two_passes(data, shape):
    return codec.check_record(codec.unpack(data), shape)


def test_package_shapes_are_the_decoders_shapes():
    assert package_shapes() == [
        (int, bytes, str, bytes, bytes),
        ("create", GROUP, int, TRUST, int), ("suspend", str, int), ("resume", str, int),
        ("result", str, bytes, tuple, int), ("terminate", str, int),
        ("plan", str, TRUST, int), ("register", bytes, tuple, int)]


def test_unpack_with_a_shape_matches_the_two_passes():
    """`unpack(data, shape)` gives the fields `check_record(unpack(data))` gives,
    or refuses with its message, on records of the package's shapes and of
    random shapes, and on their mutants."""
    rng = random.Random(4004)
    shapes = package_shapes() + [random_shape(rng) for _ in range(60)]
    cases = {"ok": 0, "refused": 0}
    for shape in shapes:
        for _ in range(8):
            data = codec.pack(*[value_for(rng, want) for want in shape])
            for mutant in [data] + list(mutations(rng, data))[::3]:
                got = record_outcome(one_pass, mutant, shape)
                assert got == record_outcome(two_passes, mutant, shape), (shape, mutant.hex())
                cases[got[0]] += 1
    assert cases["ok"] > 1000 and cases["refused"] > 10000, cases


L3 = b"L" + struct.pack(">I", 3)        # a list head that claims three items


EDGE_CASES = {
    # a bool is no int and an int is no bool, alone, in a list or in a
    # tuple of types
    "bool-as-int": (codec.pack("t", True), ("t", int), "record field 1 is not an int"),
    "int-as-bool": (codec.pack(1), (bool,), "record field 0 is not a bool"),
    "bool-as-int-list": (codec.pack(True), (codec.list_of(int),),
                         "record field 0 is not a list of int"),
    "bools-in-int-list": (codec.pack([True, 2]), (codec.list_of(int),),
                          "record field 0 is not a list of int"),
    "bool-as-str-or-int": (codec.pack(False), ((str, int),),
                           "record field 0 is not a str or an int"),
    "bool-as-int-or-bool": (codec.pack(False), ((int, bool),), (False,)),
    "int-in-bool-list": (codec.pack([1]), (codec.list_of(bool),),
                         "record field 0 is not a list of bool"),
    # a list's count larger than its items, at the end or swallowing a field
    "count-past-end": (L3 + codec.pack("a", "b"), (GROUP,), "truncated encoding"),
    "count-swallows-int": (L3 + codec.pack("a", "b", 7), (GROUP, int),
                           "record needs 2 fields"),
    "count-swallows-float": (L3 + codec.pack(0.5, 0.25, 0.75), (TRUST, float),
                             "record needs 2 fields"),
    "count-past-end-object": (L3 + codec.pack("a"), (object,), "truncated encoding"),
    # a wrong tag inside a typed list, alone or before bytes that do not decode
    "int-in-group": (codec.pack("create", ["a", 1], 5, [0.5], 7),
                     ("create", GROUP, int, TRUST, int),
                     "record field 1 is not a list of str"),
    "int-in-trust-then-junk": (codec.pack([0.5, 1]) + b"Z", (TRUST,), "unknown tag b'Z'"),
    "list-in-trust": (codec.pack([[0.5]]), (TRUST,), "record field 0 is not a list of float"),
    # nested lists in an `object` or `tuple` entry decode generically
    "nested-object": (codec.pack("t", [1, ["x", [b"y"]]]), ("t", object),
                      ("t", (1, ("x", (b"y",))))),
    "list-of-tuples": (codec.pack([[1], []]), (codec.list_of(tuple),), (((1,), ()),)),
    # a tx kind that is a float, and a tuple of types
    "float-as-int": (codec.pack(2.0), (int,), "record field 0 is not an int"),
    "str-as-bytes-or-none": (codec.pack("x", None), ((bytes, type(None)), object),
                             "record field 0 is not a bytes or a NoneType"),
    # a refused field is decoded by its own tag, and what follows it still
    # decides the refusal: a decoding error first, then the field count,
    # then the first refused field
    "refused-then-truncated": (codec.pack("u", 5)[:-1], ("t", int), "truncated encoding"),
    "refused-then-extra-item": (codec.pack(True, 7), (int,), "record needs 1 fields"),
    "literal-then-type-mismatch": (codec.pack("u", "x", 2), ("t", int, int),
                                   "record field 0 is not 't'"),
    "wrong-tag-mid-group": (codec.pack(["a", 1, [b"x", None], 2.5, "b"], 7), (GROUP, int),
                            "record field 0 is not a list of str"),
    "record-then-unknown-tag": (codec.pack("t", 1) + b"Z", ("t", int), "unknown tag b'Z'"),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_unpack_record_edge_cases(case):
    data, shape, want = EDGE_CASES[case]
    for decode in (one_pass, two_passes):
        if isinstance(want, str):
            with pytest.raises(codec.CodecError) as exc:
                decode(data, shape)
            assert str(exc.value) == want
        else:
            assert decode(data, shape) == want


def test_a_refused_record_is_decoded_once(monkeypatch):
    """A record refused at field 0 enters the codec's one decoding function
    no more often than the accepted record of the same layout does."""
    entered = []
    decode = codec._decode

    def counted(*args):
        entered.append(args[1])
        return decode(*args)

    monkeypatch.setattr(codec, "_decode", counted)
    layouts = [
        (("create", GROUP, int, TRUST, int), ("create", ["a", "b"], 5, [0.5, 0.25], 7),
         ("cre8te", ["a", "b"], 5, [0.5, 0.25], 7), "record field 0 is not 'create'"),
        (("result", str, bytes, tuple, int), ("result", "e", b"d", [["a", b"s"], ["b", b"t"]], 1),
         (b"result", "e", b"d", [["a", b"s"], ["b", b"t"]], 1),
         "record field 0 is not 'result'"),
        ((int, bytes, str, bytes, bytes), (3, b"p", "alice", b"s", b"t"),
         (True, b"p", "alice", b"s", b"t"), "record field 0 is not an int"),
    ]
    for shape, accepted, refused, message in layouts:
        fields = codec.unpack(codec.pack(*accepted))
        entered.clear()
        assert codec.unpack(codec.pack(*accepted), shape) == fields
        once = len(entered)
        entered.clear()
        with pytest.raises(codec.CodecError) as exc:
            codec.unpack(codec.pack(*refused), shape)
        assert str(exc.value) == message
        assert 1 <= len(entered) <= once, (shape, once, entered)


@pytest.mark.parametrize("shape", [(object,), (tuple,), ("t", object), (int,), (GROUP,),
                                   (codec.list_of(tuple),), (object, int)],
                         ids=["object", "tuple", "tag-object", "int", "group",
                              "list-of-tuple", "object-int"])
def test_deep_nesting_in_a_record_is_a_codec_error(shape):
    for data in DEEP:
        for body in (data, codec.pack("t") + data):
            got = record_outcome(one_pass, body, shape)
            assert got == record_outcome(two_passes, body, shape)
            assert got[0] == "refused"


def test_list_of_is_one_entry_per_type():
    assert codec.list_of(str) is GROUP
    assert isinstance(("a", "b"), GROUP) and isinstance((), GROUP)
    assert not isinstance(("a", b"b"), GROUP) and not isinstance(["a"], GROUP)
    with pytest.raises(TypeError):
        codec.list_of(list)


def test_a_shapes_decode_plan_is_built_once():
    shape = ("plan-once", str, codec.list_of(float), int)     # decoded by no other test
    data = codec.pack("plan-once", "e", [0.5], 1)
    before = codec._plan.cache_info()
    for _ in range(2):
        assert codec.unpack(data, shape) == ("plan-once", "e", (0.5,), 1)
    with pytest.raises(codec.CodecError, match="record field 3 is not an int"):
        codec.unpack(codec.pack("plan-once", "e", [0.5], "1"), shape)
    after = codec._plan.cache_info()
    assert (after.currsize - before.currsize, after.misses - before.misses,
            after.hits - before.hits) == (1, 1, 2)
