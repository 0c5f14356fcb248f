"""The consensus message path built without throwaway messages: the vote
body a certificate's pair is checked against is, byte for byte, the signed
envelope of that voter's own vote, and an envelope's kind string names a
kind only when it is exactly a kind's value."""

import random

import pytest

from conftest import decode_msg
from otcestack import codec
from otcestack.consensus import (VOTE_OF, Msg, MsgKind, PaxosReplica, PBFTReplica,
                                 config_from_plan, encode_msg, verify_msg, vote_body)
from otcestack.keys import SIG_LEN, KeyStore, seal
from otcestack.plan import Protocol, make_plan
from otcestack.simnet import SimEvent

KS = KeyStore(11)
MEMBERS = ("r0", "r1", "r2", "r3")


def own_vote(cert: Msg, voter: str) -> Msg:
    """The vote `voter` casts for what `cert` certifies, built as the
    replicas build it (`PBFTReplica._vote`, `PaxosReplica._on_p2a`)."""
    kind = VOTE_OF[cert.kind]
    if kind is MsgKind.P2B:
        return Msg(cert.instance, kind, voter, view=cert.view,
                   ballot_node=cert.ballot_node, value=cert.value)
    return Msg(cert.instance, kind, voter, view=cert.view, digest=cert.digest)


@pytest.mark.parametrize("kind", sorted(VOTE_OF, key=lambda k: k.value))
def test_vote_body_is_the_voters_own_signed_vote(kind):
    rng = random.Random(kind.value)
    for _ in range(200):
        value = rng.randbytes(rng.choice((0, 1, 32, 300)))
        cert = Msg(rng.choice(("i", "inst-7", "é")), kind, "r0",
                   view=rng.choice((0, 1, 255, 256, 2**40)),
                   ballot_node=rng.choice((-1, 0, 3, 63, 300)) if kind is MsgKind.LEARN
                   else -1,
                   value=value, digest=None if kind is MsgKind.LEARN else codec.sha(value),
                   cert=(("r1", bytes(SIG_LEN)),))
        for voter in ("r1", "r3", "m63"):
            assert vote_body(cert, voter) == encode_msg(KS, own_vote(cert, voter))[:-SIG_LEN]


# -- kind strings -----------------------------------------------------------

def test_every_kind_value_decodes_to_its_member():
    for kind in MsgKind:
        msg = decode_msg(encode_msg(KS, Msg("i", kind, "r0", view=1, value=b"v")))
        assert msg.kind is kind


BAD_KINDS = ["PREPARE", "prepare ", "", "Prepare", "prepare\x00"]


def replica(protocol: Protocol):
    cfg = config_from_plan(make_plan(protocol, len(MEMBERS)), MEMBERS, "inst")
    if protocol is Protocol.PBFT:
        return PBFTReplica(cfg, "r1", KS)
    return PaxosReplica(cfg, "r1", KS)


@pytest.mark.parametrize("kind_s", BAD_KINDS)
def test_an_envelope_of_no_kind_is_refused_and_one_drop(kind_s):
    body = (0, -1, b"v", codec.sha(b"v"), -1, -1)
    wire = seal(KS, "cons", "inst", "r0", kind_s, *body)
    good = seal(KS, "cons", "inst", "r0", "preprepare", *body)
    members = frozenset(MEMBERS)
    assert verify_msg(KS, wire, "inst", members, 3) is None
    assert verify_msg(KS, good, "inst", members, 3) is not None
    with pytest.raises(codec.CodecError, match="unknown message kind"):
        decode_msg(wire)
    for protocol in (Protocol.PBFT, Protocol.PAXOS):
        rep = replica(protocol)
        event = SimEvent(1, 1, "msg", "r0", "r1", wire, "m")
        assert rep.step(event, 1) == []
        assert rep.dropped == 1
        assert rep.verified == {wire: None}
