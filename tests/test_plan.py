import random

import pytest

from otcestack.keys import KeyStore
from otcestack.plan import (PlanInfeasibleError, PlanMapping, Protocol,
                            TrustVector, certificate_refusal, fault_bound,
                            make_plan, map_trust_to_plan, plan_score,
                            trust_vector)


def test_fault_bound_floors():
    # byzantine: strict third; crash: strict half
    assert fault_bound(Protocol.PBFT, 4) == 1
    assert fault_bound(Protocol.PBFT, 6) == 1
    assert fault_bound(Protocol.PBFT, 7) == 2
    assert fault_bound(Protocol.PBFT, 10) == 3
    assert fault_bound(Protocol.PAXOS, 2) == 0
    assert fault_bound(Protocol.PAXOS, 3) == 1
    assert fault_bound(Protocol.PAXOS, 5) == 2
    assert fault_bound(Protocol.PAXOS, 6) == 2


def test_fault_bound_identity_sweep():
    for n in range(1, 101):
        assert fault_bound(Protocol.PBFT, n) == (n - 1) // 3
        assert fault_bound(Protocol.PAXOS, n) == (n - 1) // 2


def test_byzantine_quorum_intersection_property():
    # two quorums must share at least one honest node
    for n in range(4, 101):
        plan = make_plan(Protocol.PBFT, n)
        assert 2 * plan.quorum - n > plan.f_max


def test_majority_quorum_is_majority():
    for n in range(2, 101):
        plan = make_plan(Protocol.PAXOS, n)
        assert plan.quorum == n // 2 + 1
        assert 2 * plan.quorum > n


def test_known_plan_values():
    p4 = make_plan(Protocol.PBFT, 4)
    assert (p4.f_max, p4.quorum) == (1, 3)
    p7 = make_plan(Protocol.PBFT, 7)
    assert (p7.f_max, p7.quorum) == (2, 5)
    x3 = make_plan(Protocol.PAXOS, 3)
    assert (x3.f_max, x3.quorum) == (1, 2)
    x5 = make_plan(Protocol.PAXOS, 5)
    assert (x5.f_max, x5.quorum) == (2, 3)


def test_byzantine_infeasible_below_4():
    for n in (2, 3):
        with pytest.raises(PlanInfeasibleError):
            make_plan(Protocol.PBFT, n)


def test_tiny_groups_infeasible():
    for protocol in Protocol:
        with pytest.raises(PlanInfeasibleError):
            make_plan(protocol, 1)


def test_trust_vector_validation():
    trust_vector([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        trust_vector([])
    with pytest.raises(ValueError):
        trust_vector([1.1])
    with pytest.raises(ValueError):
        trust_vector([-0.1])
    with pytest.raises(ValueError):
        TrustVector((float("nan"),))


def test_threshold_picks_protocol():
    mapping = PlanMapping()        # identity weight, tau = 0.8
    high = map_trust_to_plan(mapping, trust_vector([0.9]), 5)
    low = map_trust_to_plan(mapping, trust_vector([0.5]), 5)
    at = map_trust_to_plan(mapping, trust_vector([0.8]), 5)
    assert high.protocol is Protocol.PAXOS
    assert low.protocol is Protocol.PBFT
    assert at.protocol is Protocol.PAXOS      # threshold is inclusive


def test_score_is_weighted_sum():
    mapping = PlanMapping(weights=((0.5, 0.25),), tau=0.8)
    tv = trust_vector([0.8, 0.4])
    assert plan_score(mapping, tv) == pytest.approx(0.5)


def test_score_dimension_mismatch():
    mapping = PlanMapping(weights=((1.0, 1.0),))
    with pytest.raises(ValueError):
        plan_score(mapping, trust_vector([1.0]))


def test_threshold_monotone_in_trust():
    # raising any trust component never downgrades Paxos to PBFT
    rng = random.Random(7)
    for _ in range(200):
        width = rng.randrange(1, 4)
        weights = tuple(rng.uniform(0.0, 1.0) for _ in range(width))
        mapping = PlanMapping(weights=(weights,), tau=rng.uniform(0.0, 1.0))
        tv = [rng.random() for _ in range(width)]
        hi = list(tv)
        i = rng.randrange(width)
        hi[i] = min(1.0, hi[i] + rng.random() * (1.0 - hi[i]))
        p_lo = map_trust_to_plan(mapping, trust_vector(tv), 6)
        p_hi = map_trust_to_plan(mapping, trust_vector(hi), 6)
        if p_lo.protocol is Protocol.PAXOS:
            assert p_hi.protocol is Protocol.PAXOS


# -- the one quorum-certificate check --------------------------------------

CERT_KS = KeyStore(9)
GROUP = ("g0", "g1", "g2", "g3")


def signed(signer: str, message: bytes = b"m") -> tuple[str, bytes]:
    return signer, CERT_KS.sign(signer, message)


def refusal(pairs, quorum: int = 3) -> str | None:
    return certificate_refusal(quorum, GROUP, pairs, CERT_KS, lambda signer: b"m")


@pytest.mark.parametrize("pairs,want", [
    ([signed("g0"), signed("g1"), signed("g2")], None),
    ([signed("g0"), signed("g1"), signed("g2"), signed("g3")], None),
    ([signed("g0"), signed("g1")], "below-threshold"),
    ([signed("g0"), signed("g1"), signed("g1")], "duplicate-signer"),
    ([signed("g0"), signed("g1"), signed("x9")], "signer-not-in-group"),
    ([signed("g0"), signed("g1"), signed("g2", b"other")], "bad-signature"),
    ([signed("g0"), ("g1", bytes(32)), signed("g2")], "bad-signature"),
    # the order of the checks: repeats, then outsiders, then the count, then HMACs
    ([signed("x9"), signed("x9")], "duplicate-signer"),
    ([signed("x9"), ("g0", b"")], "signer-not-in-group"),
    ([("g0", b""), ("g1", b"")], "below-threshold"),
])
def test_certificate_refusal(pairs, want):
    assert refusal(pairs) == want


def test_certificate_refusal_checks_each_signer_over_its_own_message():
    def message_of(signer):
        return b"vote/" + signer.encode()

    pairs = [(s, CERT_KS.sign(s, message_of(s))) for s in GROUP[:3]]
    assert certificate_refusal(3, GROUP, pairs, CERT_KS, message_of) is None
    swapped = [(pairs[0][0], pairs[1][1]), (pairs[1][0], pairs[0][1]), pairs[2]]
    assert certificate_refusal(3, GROUP, swapped, CERT_KS, message_of) == "bad-signature"
