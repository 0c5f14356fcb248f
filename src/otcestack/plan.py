"""Trust-to-security-plan mapping and quorum arithmetic.

A group's trust vector is pushed through a linear scoring map: at or above
the threshold the cheaper majority protocol (Paxos) suffices, below it the
group gets the Byzantine-tolerant one (PBFT). Fault bounds use
strict-minority floors, so n nodes never tolerate exactly n/3 (or n/2)
faults. Byzantine plans are refused for groups smaller than 4, where the
bound degenerates to zero. Under either protocol the quorum is n - f_max
(for the majority protocol that equals n // 2 + 1): the votes a decision
needs, and the member signatures a sandbox result needs.
`certificate_refusal` is the one check that enough distinct members of a
group signed something: a sandbox result on the chain and each quorum
certificate of either consensus engine on the wire go through it.

`map_trust_to_plan` is the one trust-to-plan rule. Its caller is the
sandbox contract, at create and at update-plan, so every sandbox's plan
is derived on the chain from a committed trust vector. A scenario's
vector is its group's edge trust (`TrustHypergraph.group_trust`), one
component wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Protocol(str, Enum):
    PBFT = "pbft"
    PAXOS = "paxos"


class PlanInfeasibleError(ValueError):
    pass


def fault_bound(protocol: Protocol, n: int) -> int:
    """Largest tolerated fault count: floor((n-1)/3) byzantine, floor((n-1)/2) crash."""
    if n < 1:
        raise ValueError("group size must be at least 1")
    if protocol is Protocol.PBFT:
        return (n - 1) // 3
    return (n - 1) // 2


@dataclass(frozen=True, slots=True)
class SecurityPlan:
    protocol: Protocol
    n: int
    f_max: int
    quorum: int


def certificate_refusal(quorum: int, group, pairs, keystore,
                        message_of) -> str | None:
    """Why the (signer, signature) `pairs` do not show `quorum` distinct
    members of `group` signing, or None when they do. `message_of(signer)`
    gives the message that signer's signature covers. The refusals, in the
    order they are checked: duplicate-signer, signer-not-in-group,
    below-threshold, bad-signature. Signatures come last, so a pair list
    of the wrong shape costs no HMAC."""
    signers = [s for s, _ in pairs]
    if len(set(signers)) != len(signers):
        return "duplicate-signer"
    if any(s not in group for s in signers):
        return "signer-not-in-group"
    if len(signers) < quorum:
        return "below-threshold"
    for signer, sig in pairs:
        if not keystore.verify(signer, message_of(signer), sig):
            return "bad-signature"
    return None


def make_plan(protocol: Protocol, n: int) -> SecurityPlan:
    if n < 2:
        raise PlanInfeasibleError(f"a plan needs a group of at least 2, got {n}")
    if protocol is Protocol.PBFT and n < 4:
        raise PlanInfeasibleError(
            f"byzantine plan infeasible for n={n}: the fault bound degenerates below n=4")
    f = fault_bound(protocol, n)
    return SecurityPlan(protocol, n, f, n - f)


@dataclass(frozen=True)
class TrustVector:
    components: tuple[float, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("trust vector must be non-empty")
        for c in self.components:
            if not (isinstance(c, (int, float)) and math.isfinite(c)):
                raise ValueError("trust components must be finite numbers")
            if not 0.0 <= c <= 1.0:
                raise ValueError("trust components must be in [0, 1]")


def trust_vector(values) -> TrustVector:
    return TrustVector(tuple(float(v) for v in values))


@dataclass(frozen=True)
class PlanMapping:
    """Linear scoring map. Row 0 of `weights` is the protocol-choice score."""
    weights: tuple[tuple[float, ...], ...] = ((1.0,),)
    tau: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if not self.weights or any(not row for row in self.weights):
            raise ValueError("weights must have at least one non-empty row")
        width = len(self.weights[0])
        for row in self.weights:
            if len(row) != width:
                raise ValueError("weight rows must share one width")
            for w in row:
                if not math.isfinite(w):
                    raise ValueError("weights must be finite")


def plan_score(mapping: PlanMapping, tv: TrustVector) -> float:
    row = mapping.weights[0]
    if len(row) != len(tv.components):
        raise ValueError(
            f"trust vector dimension {len(tv.components)} != mapping width {len(row)}")
    return sum(w * c for w, c in zip(row, tv.components))


def map_trust_to_plan(mapping: PlanMapping, tv: TrustVector, n: int) -> SecurityPlan:
    """Pick the protocol by score vs. threshold and fill in the quorum math."""
    score = plan_score(mapping, tv)
    protocol = Protocol.PAXOS if score >= mapping.tau else Protocol.PBFT
    return make_plan(protocol, n)
