import random

import pytest

from otcestack import codec


def test_round_trip_simple_values():
    items = (None, True, False, 0, 1, -1, 2**70, -(2**70), 1.5, -0.0,
             b"", b"\x00\xff", "", "hello", "é世")
    assert codec.unpack(codec.pack(*items)) == items


def test_round_trip_nested_lists():
    items = ([1, [2, [3, "x"]], b"y"], [], [None, [True]])
    got = codec.unpack(codec.pack(*items))
    assert got == ((1, (2, (3, "x")), b"y"), (), (None, (True,)))


def test_bool_is_not_int():
    # True and 1 must encode differently or digests would collide
    assert codec.pack(True) != codec.pack(1)
    assert codec.pack(False) != codec.pack(0)


def test_int_and_str_and_bytes_distinct():
    assert codec.pack(49) != codec.pack("1")
    assert codec.pack("1") != codec.pack(b"1")


def test_deterministic_encoding():
    assert codec.pack("a", 1, [b"x"]) == codec.pack("a", 1, [b"x"])


def test_digest_changes_with_any_field():
    base = codec.digest("k", 1, b"p")
    assert codec.digest("k", 1, b"q") != base
    assert codec.digest("k", 2, b"p") != base
    assert codec.digest("j", 1, b"p") != base


def test_truncation_errors_or_loses_items():
    # cuts inside an item raise; cuts between items can only shorten the tuple,
    # so a fixed field count upstream still catches them
    full = codec.unpack(codec.pack("hello", 123, b"world"))
    data = codec.pack("hello", 123, b"world")
    for cut in range(0, len(data)):
        try:
            got = codec.unpack(data[:cut])
        except codec.CodecError:
            continue
        assert len(got) < len(full)
        assert got == full[:len(got)]


def test_unpack_rejects_trailing_garbage():
    data = codec.pack(1) + b"\x00"
    with pytest.raises(codec.CodecError):
        codec.unpack(data)


def test_unpack_rejects_unknown_tag():
    with pytest.raises(codec.CodecError):
        codec.unpack(b"Z\x00\x00\x00\x00")


def test_deep_nesting_is_a_codec_error():
    # 5000 nested one-item lists, far past the interpreter's recursion limit
    with pytest.raises(codec.CodecError, match="nesting too deep"):
        codec.unpack(bytes.fromhex("4c00000001" * 5000))


def test_deeply_nested_wire_message_is_dropped():
    from otcestack.consensus import verify_msg
    from otcestack.keys import KeyStore

    assert verify_msg(KeyStore(1), bytes.fromhex("4c00000001" * 5000), "i", ("m0",), 1) is None


def test_random_round_trips():
    rng = random.Random(20240817)

    def rand_item(depth):
        kind = rng.randrange(7 if depth < 3 else 6)
        if kind == 0:
            return None
        if kind == 1:
            return rng.random() < 0.5
        if kind == 2:
            return rng.randrange(-2**64, 2**64)
        if kind == 3:
            return rng.uniform(-1e9, 1e9)
        if kind == 4:
            return rng.randbytes(rng.randrange(0, 20))
        if kind == 5:
            return "".join(chr(rng.randrange(32, 1000)) for _ in range(rng.randrange(0, 10)))
        return [rand_item(depth + 1) for _ in range(rng.randrange(0, 4))]

    def normalize(item):
        if isinstance(item, list):
            return tuple(normalize(x) for x in item)
        return item

    for _ in range(300):
        items = [rand_item(0) for _ in range(rng.randrange(0, 6))]
        assert codec.unpack(codec.pack(*items)) == tuple(normalize(i) for i in items)


def test_unpack_with_a_shape_checks_count_tag_and_types():
    data = codec.pack("tag", 1, b"x", None, [1, 2])
    shape = ("tag", int, bytes, (bytes, type(None)), tuple)
    assert codec.unpack(data, shape) == ("tag", 1, b"x", None, (1, 2))
    # a bool is no int: only a `bool` or `object` entry takes one
    with pytest.raises(codec.CodecError, match="record field 1 is not an int"):
        codec.unpack(codec.pack("tag", True), ("tag", int))
    assert codec.unpack(codec.pack("tag", True), ("tag", (int, bool))) == ("tag", True)
    assert codec.unpack(codec.pack(b"t", 2.5), (object, object)) == (b"t", 2.5)
    assert codec.unpack(b"", ()) == ()
    for bad in [("tag", int, bytes, object), ("tag", int, bytes, object, tuple, object),
                ("gat", int, bytes, object, tuple), ("tag", str, bytes, object, tuple),
                ("tag", int, str, object, tuple), ("tag", int, bytes, bytes, tuple),
                ("tag", int, bytes, object, list), (bytes, int, bytes, object, tuple)]:
        with pytest.raises(codec.CodecError):
            codec.unpack(data, bad)
    with pytest.raises(codec.CodecError):
        codec.unpack(b"Z", (object,))


def test_check_record_takes_unpacked_tuples_only():
    assert codec.check_record(("a", b"b"), codec.PAIR) == ("a", b"b")
    assert codec.check_record((), ()) == ()
    for bad in [["a", b"b"], "ab", b"ab", None, ("a",), ("a", b"b", b"c"), (b"a", b"b")]:
        with pytest.raises(codec.CodecError):
            codec.check_record(bad, codec.PAIR)


def test_short_digest_is_8_hex_chars():
    s = codec.short(b"abc")
    assert len(s) == 8
    assert int(s, 16) >= 0
