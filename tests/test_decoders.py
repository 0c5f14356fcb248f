"""The refusal set of every decoder of packed data, pinned field by field.

Each case starts from a valid encoding and checks that it decodes to the
expected value; that a wrong tag, a missing field, an extra field, and each
checked field given a wrong type are refused; and that the fields left
unchecked accept other values. A refusal is a CodecError, None from
`unseal`, `verify_msg` and `TaskExecutor._open`, or a need that
`TaskExecutor.step` counts as rejected. The envelope case covers the header
that every network message shares, whatever its body.
"""

from dataclasses import dataclass, field

import pytest

from otcestack import codec
from otcestack.bvm import Task, TaskDAG, TaskExecutor, chunk_input, lit_input, task_input
from otcestack.consensus import Msg, MsgKind, verify_msg
from otcestack.did import DIDRegistry, register_payload
from otcestack.keys import SIG_LEN, KeyStore, seal, unseal
from otcestack.ledger import Transaction, TxKind, decode_tx
from otcestack.otce import (OTCERegistry, create_payload, lifecycle_payload,
                            submit_result_payload, update_plan_payload)
from otcestack.simnet import SimEvent

REFUSED = "refused"
KS = KeyStore(5)
SIG = b"s" * 32
TXID = b"i" * 32


def _codec_errors(decode):
    def run(fields):
        try:
            return decode(codec.pack(*fields))
        except codec.CodecError:
            return REFUSED
    return run


def _otce(kind):
    return _codec_errors(lambda data: OTCERegistry(KS).decode_payload(kind, data))


def _envelope(fields):
    body = codec.pack(*fields)
    got = unseal(KS, body + KS.sign("m0", body), "cons", "inst", ("m0", "m1"))
    return REFUSED if got is None else got


def _consensus(fields):
    # the tag, then a message's fields in `Msg` order, which puts the kind
    # before the sender; m0 signs
    tag, instance, kind, sender, *body = fields
    wire = codec.pack(tag, instance, sender, kind, *body)
    msg = verify_msg(KS, wire + KS.sign("m0", wire), "inst", ("m0",), 1)
    return REFUSED if msg is None else msg


def _bvm_wire(fields):
    # `seal`'s arguments, with m0 as the signer
    return seal(KS, fields[0], fields[1], "m0", *fields[2:])


def _bvm(fields):
    dag = TaskDAG({"t": Task("t", "hash", (lit_input(b"\x01"),))})
    executor = TaskExecutor("x1", dag, "m1", ("m0", "m1"), {"t": "m1"}, {}, KS)
    got = executor._open(_bvm_wire(fields))
    return REFUSED if got is None else got


def _bvm_need(fields):
    # m1 owns t, holds k and has computed t; m0 owns u
    dag = TaskDAG({"t": Task("t", "concat", (chunk_input("k"),)),
                   "u": Task("u", "add", (task_input("t"),))})
    executor = TaskExecutor("x1", dag, "m1", ("m0", "m1"), {"t": "m1", "u": "m0"},
                            {"m1": {"k": b"\x07"}}, KS)
    executor.step(SimEvent(0, 0, "local", "m1", "m1", b"", "start"), 0)
    executor.step(SimEvent(1, 1, "timer", "m1", "m1", b"", "exec:t"), 1)
    acts = executor.step(SimEvent(2, 2, "msg", "m0", "m1", _bvm_wire(fields), "need"), 2)
    if executor.rejected:
        return REFUSED
    return tuple((a.dst,) + codec.unpack(a.payload[:-SIG_LEN])[3:] for a in acts)


@dataclass
class Case:
    name: str
    decode: object
    fields: list
    expected: object
    refused: list = field(default_factory=list)    # (index, value)
    accepted: list = field(default_factory=list)   # (index, value, expected)
    tagged: bool = True
    extra: object = REFUSED       # what one more field at the end gives


TX = Transaction(TxKind.CREATE_OTCE, b"p", "alice", SIG, TXID)
GROUP = ("a", "b", "c", "d")
SIGS = (("a", b"s1"),)
MSG = Msg("inst", MsgKind.PREPARE, "m0", 2, None, b"d" * 32, -1)

CASES = [
    Case("tx", _codec_errors(decode_tx), [1, b"p", "alice", SIG, TXID], TX,
         refused=[(0, 99), (0, 1.5), (0, "1"), (0, None), (0, True), (0, 1.0),
                  (1, "p"), (2, b"alice"), (3, "s"), (4, None)],
         tagged=False),
    Case("otce-create", _otce(TxKind.CREATE_OTCE),
         ["create", list(GROUP), 5, [0.5, 0.25], 7],
         (GROUP, 5, (0.5, 0.25)),
         refused=[(1, b"a"), (1, ["a", 1]), (1, "abcd"), (2, "5"), (2, 5.0), (2, None),
                  (3, b"x"), (3, 0.5), (3, [0.5, 1]), (3, [True]), (3, ["0.5"]),
                  (3, [[0.5]]), (4, "7"), (4, None),
                  # a plan's fields in place of the trust vector
                  (3, ["pbft", 4, 1, 3]), (3, ["pbft", 4, 1, 3, 3, 0]),
                  (3, ["raft", 4, 1, 3, 3]), (3, [b"pbft", 4, 1, 3, 3]),
                  (3, ["pbft", 4, "1", 3, 3]), (3, ["pbft", 4, 1, 3, 3.0]),
                  # a bool is no int
                  (2, True), (4, False)],
         accepted=[(1, [], ((), 5, (0.5, 0.25))),
                   (3, [], (GROUP, 5, ()))]),
    # suspend, resume and terminate name the sandbox and nothing else; each
    # refuses the others' tags
    Case("otce-suspend", _otce(TxKind.SUSPEND_OTCE), ["suspend", "E1", 3], ("E1",),
         refused=[(0, "resume"), (1, b"E1"), (2, "m"), (2, None), (2, "3")]),
    Case("otce-resume", _otce(TxKind.RESUME_OTCE), ["resume", "E1", 3], ("E1",),
         refused=[(0, "suspend"), (1, 5), (2, 3.0), (2, b"3")]),
    Case("otce-terminate", _otce(TxKind.TERMINATE_OTCE), ["terminate", "E1", 3], ("E1",),
         refused=[(0, "suspend"), (1, None), (2, b"closed"), (2, "3")]),
    Case("otce-result", _otce(TxKind.SUBMIT_RESULT),
         ["result", "E1", b"d", [["a", b"s1"]], 3], ("E1", b"d", SIGS),
         refused=[(1, 1), (2, []), (2, [["a"]]), (2, [["a", b"d", 1]]),
                  (2, [[b"a", b"d"]]), (2, ["a"]), (3, "x"), (3, [["a", "s"]]),
                  (3, [b"ab"]), (3, [["a", b"s"], []]), (4, "n"), (4, None),
                  (4, [1, b"2"])],
         accepted=[(2, b"x", ("E1", b"x", SIGS)), (3, [], ("E1", b"d", ()))]),
    Case("otce-plan", _otce(TxKind.UPDATE_PLAN), ["plan", "E1", [0.5, 0.25], 3],
         ("E1", (0.5, 0.25)),
         refused=[(1, b"E1"), (2, b"x"), (2, [0.5, 1]), (2, [True]), (2, ["0.5"]),
                  (3, "3")],
         accepted=[(2, [], ("E1", ()))]),
    Case("did-register", _codec_errors(
             lambda data: DIDRegistry().decode_payload(TxKind.REGISTER_DID, data)),
         ["register", b"pk", [["role", b"\x00"], ["tier", b"\xff"]], 3],
         (b"pk", (("role", b"\x00"), ("tier", b"\xff"))),
         refused=[(1, "pk"), (2, b"x"), (3, None), (2, [["role"]]),
                  (2, [["role", b"0", b"1"]]), (2, [["role", "00"]]), (2, [[1, b"0"]]),
                  (2, [["r", b"0"], ["r", b"1"]]), (2, ["role"]), (3, True)],
         accepted=[(2, [], (b"pk", ()))]),
    # (tag, scope, signer, kind) and then an open body, so a missing field
    # is a missing kind and an extra one is the body; m0 signs every wire
    Case("envelope", _envelope, ["cons", "inst", "m0", "prepare"], ("m0", "prepare", ()),
         refused=[(0, "bvm-val"), (0, b"cons"), (1, "elsewhere"), (1, b"inst"), (1, None),
                  (2, "stranger"), (2, b"m0"), (2, None),
                  (2, "m1"),                    # a member, but not the one who signed
                  (3, 5), (3, None), (3, b"prepare"), (3, ["prepare"])],
         # the kind is the engine's to check
         accepted=[(3, "bogus", ("m0", "bogus", ()))],
         extra=("m0", "prepare", (0,))),
    # view, value, digest and cert_view follow the header
    Case("consensus", _consensus,
         ["cons", "inst", "prepare", "m0", 2, None, b"d" * 32, -1], MSG,
         refused=[(1, b"inst"), (2, "bogus"), (2, b"prepare"), (3, b"m0"), (4, "2"),
                  (5, 1.0), (6, "v"), (6, 5), (7, None), (7, b"x"), (4, True)],
         accepted=[(5, b"v", Msg("inst", MsgKind.PREPARE, "m0", 2, b"v", b"d" * 32, -1)),
                   (6, b"v", Msg("inst", MsgKind.PREPARE, "m0", 2, None, b"v", -1)),
                   (6, None, Msg("inst", MsgKind.PREPARE, "m0", 2, None, None, -1))]),
    Case("bvm-value", _bvm, ["bvm-val", "x1", "value", "t", b"\x07"],
         ("m0", "value", (("t", b"\x07"),)),
         # a kind that is not a str is the envelope's refusal
         refused=[(1, "x2"), (1, b"x1"), (2, 5), (4, "s"), (4, 5)],
         # the kind and ref are not checked by the shape
         accepted=[(2, "other", ("m0", "other", (("t", b"\x07"),))),
                   (3, None, ("m0", "value", ((None, b"\x07"),)))]),
    # a need names an input kind and packs a non-empty run of refs of that
    # kind that the receiver owns (a task) or holds (a chunk)
    Case("bvm-need", _bvm_need, ["bvm-val", "x1", "need", "t", codec.pack("t")],
         (("m0", "value", "t", b"\x07"),),
         refused=[(3, "x"), (3, None), (3, "value"), (3, "c"),
                  (4, b""), (4, b"\xff"), (4, codec.pack()), (4, codec.pack(5)),
                  (4, codec.pack(b"t")), (4, codec.pack(["t"])), (4, codec.pack("t", 5)),
                  (4, codec.pack("u")), (4, codec.pack("t", "ghost")), (4, codec.pack("k"))],
         accepted=[(4, codec.pack("t", "t"), (("m0", "value", "t", b"\x07"),))]),
]


def _variants():
    for case in CASES:
        yield case, "valid", case.fields, case.expected
        if case.tagged:
            yield case, "wrong-tag", ["nope"] + case.fields[1:], REFUSED
        yield case, "missing", case.fields[:-1], REFUSED
        yield case, "extra", case.fields + [0], case.extra
        for i, value in case.refused:
            yield case, f"bad-{i}-{value!r}", _replace(case.fields, i, value), REFUSED
        for i, value, expected in case.accepted:
            yield case, f"ok-{i}-{value!r}", _replace(case.fields, i, value), expected


def _replace(fields, i, value):
    out = list(fields)
    out[i] = value
    return out


VARIANTS = list(_variants())


@pytest.mark.parametrize("case,variant,fields,expected", VARIANTS,
                         ids=[f"{c.name}:{v}" for c, v, _, _ in VARIANTS])
def test_decoder_refusal_set(case, variant, fields, expected):
    assert case.decode(fields) == expected


# a payload of each tx kind, as its builder gives it
PAYLOADS = {
    TxKind.CREATE_OTCE: create_payload(("b", "a"), 5, [0.5], 7),
    **{kind: lifecycle_payload(kind, "E1", 3) for kind in (
        TxKind.SUSPEND_OTCE, TxKind.RESUME_OTCE, TxKind.TERMINATE_OTCE)},
    TxKind.SUBMIT_RESULT: submit_result_payload("E1", b"d", [("b", b"s2"), ("a", b"s1")], 3),
    TxKind.UPDATE_PLAN: update_plan_payload("E1", [0.25], 3),
    TxKind.REGISTER_DID: register_payload(b"pk", {"tier": b"\x01", "role": b"\x00"}, 3),
}


def test_each_contract_declares_its_kinds_once():
    assert PAYLOADS.keys() == OTCERegistry.KINDS | DIDRegistry.KINDS
    for contract in (OTCERegistry, DIDRegistry):
        assert contract.KINDS == contract.TXS.keys()


@pytest.mark.parametrize("kind", sorted(PAYLOADS), ids=lambda kind: kind.name)
def test_a_payload_decodes_to_the_fields_between_its_tag_and_its_nonce(kind):
    contract = OTCERegistry(KS) if kind in OTCERegistry.KINDS else DIDRegistry()
    payload = PAYLOADS[kind]
    assert contract.decode_payload(kind, payload) == codec.unpack(payload)[1:-1]


def test_wire_no_longer_than_a_signature_is_dropped():
    for wire in (b"", b"\x00" * 31, KS.sign("m0", b"")):
        assert unseal(KS, wire, "cons", "inst", ("m0",)) is None
        assert verify_msg(KS, wire, "inst", ("m0",), 1) is None
