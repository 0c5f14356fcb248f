"""The refusal set of every decoder of packed data, pinned field by field.

Each case starts from a valid encoding and checks that it decodes to the
expected value; that a wrong tag, a missing field, an extra field, and each
checked field given a wrong type are refused; and that the fields left
unchecked accept other values. A refusal is a CodecError, or None from
`verify_msg` and `TaskExecutor._check`.
"""

from dataclasses import dataclass, field

import pytest

from otcestack import codec
from otcestack.bvm import Task, TaskDAG, TaskExecutor, lit_input
from otcestack.consensus import Msg, MsgKind, verify_msg
from otcestack.did import DIDRegistry
from otcestack.keys import KeyStore
from otcestack.ledger import Transaction, TxKind, decode_tx
from otcestack.otce import OTCERegistry, ResultSubmission
from otcestack.plan import Protocol, SecurityPlan

REFUSED = "refused"
KS = KeyStore(5)
KS.ensure("m0")
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


def _wire(fields):
    body = codec.pack(*fields)
    return body + KS.sign("m0", body)


def _consensus(fields):
    msg = verify_msg(KS, _wire(fields))
    return REFUSED if msg is None else msg


def _bvm(fields):
    dag = TaskDAG({"t": Task("t", "hash", (lit_input(b"\x01"),))})
    executor = TaskExecutor("x1", dag, "m1", ("m0", "m1"), ["t"], {}, KS)
    got = executor._check("m0", _wire(fields))
    return REFUSED if got is None else got


@dataclass
class Case:
    name: str
    decode: object
    fields: list
    expected: object
    refused: list = field(default_factory=list)    # (index, value)
    accepted: list = field(default_factory=list)   # (index, value, expected)
    tagged: bool = True


PLAN = ["pbft", 4, 1, 3, 3]
PBFT4 = SecurityPlan(Protocol.PBFT, 4, 1, 3, 3)
TX = Transaction(TxKind.CREATE_OTCE, b"p", "alice", SIG, TXID)
GROUP = ("a", "b", "c", "d")
RESULT = ResultSubmission("E1", (("a", b"d1"), ("b", b"d2")), (("a", b"s1"),))
MSG = Msg("inst", MsgKind.PREPARE, "m0", 2, -1, None, b"d" * 32, -1, -1)

CASES = [
    Case("tx", _codec_errors(decode_tx), [1, b"p", "alice", SIG, TXID], TX,
         refused=[(0, 99), (0, 1.5), (0, "1"), (0, None), (1, "p"), (2, b"alice"),
                  (3, "s"), (4, None)],
         # TxKind(...) is the only check on the kind number
         accepted=[(0, True, TX), (0, 1.0, TX)],
         tagged=False),
    Case("otce-create", _otce(TxKind.CREATE_OTCE), ["create", list(GROUP), 5, PLAN, 7],
         ("create", GROUP, 5, PBFT4),
         refused=[(1, b"a"), (1, ["a", 1]), (1, "abcd"), (2, "5"), (2, 5.0), (2, None),
                  (3, b"x"), (3, PLAN[:4]), (3, PLAN + [0]), (3, ["raft", 4, 1, 3, 3]),
                  (3, [b"pbft", 4, 1, 3, 3]), (3, ["pbft", 4, "1", 3, 3]),
                  (3, ["pbft", 4, 1, 3, 3.0]), (4, "7"), (4, None)],
         accepted=[(1, [], ("create", (), 5, PBFT4)),
                   (2, True, ("create", GROUP, 1, PBFT4)),
                   (4, False, ("create", GROUP, 5, PBFT4))]),
    Case("otce-suspend", _otce(TxKind.SUSPEND_OTCE), ["suspend", "E1", b"m", 3],
         ("suspend", "E1", b"m"),
         refused=[(1, b"E1"), (2, "m"), (2, None), (3, "3")]),
    Case("otce-resume", _otce(TxKind.RESUME_OTCE), ["resume", "E1", 3], ("resume", "E1"),
         refused=[(1, 5), (2, 3.0), (2, b"3")]),
    Case("otce-terminate", _otce(TxKind.TERMINATE_OTCE), ["terminate", "E1", "closed", 3],
         ("terminate", "E1", "closed"),
         refused=[(1, None), (2, b"closed"), (3, "3")]),
    Case("otce-result", _otce(TxKind.SUBMIT_RESULT),
         ["result", "E1", [["a", b"d1"], ["b", b"d2"]], [["a", b"s1"]], 3],
         ("result", RESULT),
         refused=[(1, 1), (2, b"x"), (3, "x"), (2, [["a"]]), (2, [["a", b"d", 1]]),
                  (2, [[b"a", b"d"]]), (2, ["a"]), (3, [["a", "s"]]), (3, [b"ab"]),
                  (3, [["a", b"s"], []])],
         # the nonce of a result is not checked
         accepted=[(4, "n", ("result", RESULT)), (4, None, ("result", RESULT)),
                   (4, [1, b"2"], ("result", RESULT)),
                   (2, [], ("result", ResultSubmission("E1", (), (("a", b"s1"),))))]),
    Case("otce-plan", _otce(TxKind.UPDATE_PLAN), ["plan", "E1", [0.5, 0.25], 3],
         ("plan", "E1", (0.5, 0.25)),
         refused=[(1, b"E1"), (2, b"x"), (2, [0.5, 1]), (2, [True]), (2, ["0.5"]),
                  (3, "3")],
         accepted=[(2, [], ("plan", "E1", ()))]),
    Case("did-register", _codec_errors(
             lambda data: DIDRegistry().decode_payload(TxKind.REGISTER_DID, data)),
         ["register", b"pk", [["role", b"\x00"], ["tier", b"\xff"]], 3],
         (b"pk", {"role": b"\x00", "tier": b"\xff"}),
         refused=[(1, "pk"), (2, b"x"), (3, None), (2, [["role"]]),
                  (2, [["role", b"0", b"1"]]), (2, [["role", "00"]]), (2, [[1, b"0"]]),
                  (2, [["r", b"0"], ["r", b"1"]]), (2, ["role"])],
         accepted=[(2, [], (b"pk", {})), (3, True, (b"pk", {"role": b"\x00",
                                                             "tier": b"\xff"}))]),
    Case("consensus", _consensus,
         ["cons", "inst", "prepare", "m0", 2, -1, None, b"d" * 32, -1, -1], MSG,
         refused=[(1, b"inst"), (2, "bogus"), (2, b"prepare"), (3, b"m0"), (4, "2"),
                  (5, 1.0), (6, "v"), (7, 5), (8, None), (9, b"x")],
         accepted=[(6, b"v", Msg("inst", MsgKind.PREPARE, "m0", 2, -1, b"v", b"d" * 32,
                                 -1, -1)),
                   (7, None, Msg("inst", MsgKind.PREPARE, "m0", 2, -1, None, None,
                                 -1, -1)),
                   (4, True, Msg("inst", MsgKind.PREPARE, "m0", 1, -1, None, b"d" * 32,
                                 -1, -1))]),
    Case("bvm-value", _bvm, ["bvm-val", "x1", "value", "t", b"\x07"],
         ("value", "t", b"\x07"),
         refused=[(1, "x2"), (1, b"x1")],
         # kind, ref and data are not checked by the shape
         accepted=[(2, 5, (5, "t", b"\x07")), (3, None, ("value", None, b"\x07")),
                   (4, "s", ("value", "t", "s"))]),
]


def _variants():
    for case in CASES:
        yield case, "valid", case.fields, case.expected
        if case.tagged:
            yield case, "wrong-tag", ["nope"] + case.fields[1:], REFUSED
        yield case, "missing", case.fields[:-1], REFUSED
        yield case, "extra", case.fields + [0], REFUSED
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


def test_wire_no_longer_than_a_signature_is_dropped():
    for wire in (b"", b"\x00" * 31, KS.sign("m0", b"")):
        assert verify_msg(KS, wire) is None
