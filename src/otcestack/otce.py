"""Sandbox lifecycle contract: creation, suspend/resume, results, expiry.

Each record tracks (eid, state, group, lifetime, results, security plan).
Creation promotes straight to Running inside the sealing step that commits
it. Termination is absorbing and has three causes: a verified result
submission ("results"), a member-initiated close ("closed"), and the
end-of-block expiry sweep ("expiry") once `created_height + delta_t` is
reached — the countdown keeps running while a record is suspended.

The sweep is driven by an expiry index: a min-heap of (expiry height, eid)
filled at creation. Each seal pops only the entries now due, and skips
records that already terminated, so its cost follows the records expiring
now rather than every record ever created.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from . import codec
from .keys import KeyStore
from .ledger import SYSTEM_SENDER, Transaction, TxKind, make_tx
from .plan import (PlanInfeasibleError, PlanMapping, Protocol, SecurityPlan,
                   check_plan, map_trust_to_plan, trust_vector)


class OTCEState(str, Enum):
    NEW = "New"
    RUNNING = "Running"
    SUSPEND = "Suspend"
    TERMINATED = "Terminated"


LEGAL_TRANSITIONS = frozenset({
    (OTCEState.NEW, OTCEState.RUNNING),
    (OTCEState.RUNNING, OTCEState.SUSPEND),
    (OTCEState.SUSPEND, OTCEState.RUNNING),
    (OTCEState.RUNNING, OTCEState.TERMINATED),
    (OTCEState.SUSPEND, OTCEState.TERMINATED),
})

CAUSE_RESULTS = "results"
CAUSE_EXPIRY = "expiry"
CAUSE_CLOSED = "closed"

LIVE_STATES = (OTCEState.RUNNING, OTCEState.SUSPEND)


@dataclass(frozen=True)
class ResultSubmission:
    eid: str
    digests: tuple[tuple[str, bytes], ...]       # (node, digest), sorted by node
    quorum_sigs: tuple[tuple[str, bytes], ...]   # (signer, signature), sorted


@dataclass
class OTCERecord:
    eid: str
    state: OTCEState
    group: tuple[str, ...]
    delta_t: int
    created_height: int
    plan: SecurityPlan
    results: ResultSubmission | None = None
    cause: str | None = None
    suspend_meta: bytes | None = None
    terminated_height: int | None = None

    @property
    def expiry_height(self) -> int:
        return self.created_height + self.delta_t


# -- payload encodings -----------------------------------------------------

def _plan_fields(plan: SecurityPlan) -> list:
    return [plan.protocol.value, plan.n, plan.f_max, plan.quorum, plan.verify_threshold]


def _plan_from_fields(fields) -> SecurityPlan:
    proto_s, *numbers = codec.check_record(fields, str, int, int, int, int)
    try:
        protocol = Protocol(proto_s)
    except ValueError as exc:
        raise codec.CodecError(f"unknown protocol {proto_s!r}") from exc
    return SecurityPlan(protocol, *numbers)


def create_payload(group, delta_t: int, plan: SecurityPlan, nonce: int) -> bytes:
    return codec.pack("create", sorted(group), delta_t, _plan_fields(plan), nonce)


def suspend_payload(eid: str, meta: bytes, nonce: int) -> bytes:
    return codec.pack("suspend", eid, meta, nonce)


def resume_payload(eid: str, nonce: int) -> bytes:
    return codec.pack("resume", eid, nonce)


def terminate_payload(eid: str, cause: str, nonce: int) -> bytes:
    return codec.pack("terminate", eid, cause, nonce)


def submit_result_payload(sub: ResultSubmission, nonce: int) -> bytes:
    digests = [[node, d] for node, d in sorted(sub.digests)]
    sigs = [[signer, s] for signer, s in sorted(sub.quorum_sigs)]
    return codec.pack("result", sub.eid, digests, sigs, nonce)


def update_plan_payload(eid: str, components, nonce: int) -> bytes:
    return codec.pack("plan", eid, [float(c) for c in components], nonce)


def combined_digest(digests) -> bytes:
    parts: list = []
    for node, d in sorted(digests):
        parts.append(node)
        parts.append(d)
    return codec.digest(*parts)


def result_message(eid: str, combined: bytes) -> bytes:
    """The byte string each quorum member signs to endorse a result set."""
    return codec.pack("result-sig", eid, combined)


def eid_for_tx(tx_id: bytes) -> str:
    return "E" + tx_id.hex()[:12]


class OTCERegistry:
    """Contract state machine for sandbox records, driven by committed txs."""

    KINDS = frozenset({
        TxKind.CREATE_OTCE, TxKind.SUSPEND_OTCE, TxKind.RESUME_OTCE,
        TxKind.SUBMIT_RESULT, TxKind.TERMINATE_OTCE, TxKind.UPDATE_PLAN,
    })

    def __init__(self, keystore: KeyStore, mapping: PlanMapping | None = None):
        self.keystore = keystore
        self.mapping = mapping if mapping is not None else PlanMapping()
        self.records: dict[str, OTCERecord] = {}
        # (eid, from, to, height, note) — audit trail for lifecycle checks
        self.transitions: list[tuple[str, OTCEState, OTCEState, int, str]] = []
        # (expiry_height, eid) min-heap of every created record; entries of
        # records that terminated earlier are dropped when they come due
        self._expiry: list[tuple[int, str]] = []

    # -- payload validation (structural; semantic checks live in apply) ----

    def decode_payload(self, kind: TxKind, payload: bytes):
        if kind is TxKind.CREATE_OTCE:
            _, group, delta_t, plan_fields, _ = codec.unpack_record(
                payload, "create", tuple, int, tuple, int)
            codec.check_record(group, *(str,) * len(group))
            return "create", group, delta_t, _plan_from_fields(plan_fields)
        if kind is TxKind.SUSPEND_OTCE:
            _, eid, meta, _ = codec.unpack_record(payload, "suspend", str, bytes, int)
            return "suspend", eid, meta
        if kind is TxKind.RESUME_OTCE:
            _, eid, _ = codec.unpack_record(payload, "resume", str, int)
            return "resume", eid
        if kind is TxKind.TERMINATE_OTCE:
            _, eid, cause, _ = codec.unpack_record(payload, "terminate", str, str, int)
            return "terminate", eid, cause
        if kind is TxKind.SUBMIT_RESULT:
            _, eid, digests, sigs, _ = codec.unpack_record(
                payload, "result", str, tuple, tuple, object)
            for pair in digests + sigs:
                codec.check_record(pair, str, bytes)
            return "result", ResultSubmission(eid, digests, sigs)
        if kind is TxKind.UPDATE_PLAN:
            _, eid, components, _ = codec.unpack_record(payload, "plan", str, tuple, int)
            codec.check_record(components, *(float,) * len(components))
            return "plan", eid, components
        raise codec.CodecError(f"unsupported kind {kind.name}")

    # -- state transitions -------------------------------------------------

    def _transition(self, rec: OTCERecord, new_state: OTCEState, height: int,
                    note: str) -> None:
        if (rec.state, new_state) not in LEGAL_TRANSITIONS:
            raise RuntimeError(
                f"illegal transition {rec.state.value} -> {new_state.value} for {rec.eid}")
        self.transitions.append((rec.eid, rec.state, new_state, height, note))
        rec.state = new_state

    def record(self, eid: str) -> OTCERecord:
        try:
            return self.records[eid]
        except KeyError:
            raise ValueError(f"unknown eid {eid}") from None

    def alive(self) -> list[OTCERecord]:
        return [self.records[eid] for eid in sorted(self.records)
                if self.records[eid].state in LIVE_STATES]

    # -- tx application ----------------------------------------------------

    def apply(self, tx: Transaction, decoded, height: int) -> tuple[bool, str]:
        """Apply a committed tx, given its payload as `decode_payload` returned it."""
        verb = decoded[0]
        if verb == "create":
            return self._apply_create(tx, decoded, height)
        if verb == "suspend":
            return self._apply_suspend(tx, decoded, height)
        if verb == "resume":
            return self._apply_resume(tx, decoded, height)
        if verb == "terminate":
            return self._apply_terminate(tx, decoded, height)
        if verb == "result":
            return self._apply_result(tx, decoded, height)
        return self._apply_update_plan(tx, decoded, height)

    def _apply_create(self, tx, decoded, height) -> tuple[bool, str]:
        _, group, delta_t, plan = decoded
        if not group:
            return False, "empty-group"
        if len(set(group)) != len(group):
            return False, "duplicate-members"
        if delta_t < 1:
            return False, "bad-delta"
        if plan.n != len(group) or not check_plan(plan):
            return False, "plan-mismatch"
        eid = eid_for_tx(tx.tx_id)
        if eid in self.records:
            return False, "eid-collision"
        rec = OTCERecord(eid=eid, state=OTCEState.NEW, group=tuple(sorted(group)),
                         delta_t=delta_t, created_height=height, plan=plan)
        self.records[eid] = rec
        heapq.heappush(self._expiry, (rec.expiry_height, eid))
        # creation and promotion to Running commit in the same sealing step
        self._transition(rec, OTCEState.RUNNING, height, "create")
        return True, eid

    def _apply_suspend(self, tx, decoded, height) -> tuple[bool, str]:
        _, eid, meta = decoded
        rec = self.records.get(eid)
        if rec is None:
            return False, "unknown-eid"
        if tx.sender not in rec.group:
            return False, "not-a-member"
        if rec.state is not OTCEState.RUNNING:
            return False, f"bad-state:{rec.state.value}"
        rec.suspend_meta = meta
        self._transition(rec, OTCEState.SUSPEND, height, "suspend")
        return True, ""

    def _apply_resume(self, tx, decoded, height) -> tuple[bool, str]:
        _, eid = decoded
        rec = self.records.get(eid)
        if rec is None:
            return False, "unknown-eid"
        if tx.sender not in rec.group:
            return False, "not-a-member"
        if rec.state is not OTCEState.SUSPEND:
            return False, f"bad-state:{rec.state.value}"
        self._transition(rec, OTCEState.RUNNING, height, "resume")
        return True, ""

    def _apply_terminate(self, tx, decoded, height) -> tuple[bool, str]:
        _, eid, _cause = decoded
        rec = self.records.get(eid)
        if rec is None:
            return False, "unknown-eid"
        if tx.sender == SYSTEM_SENDER:
            cause = CAUSE_EXPIRY
        elif tx.sender in rec.group:
            cause = CAUSE_CLOSED
        else:
            return False, "not-a-member"
        if rec.state not in LIVE_STATES:
            return False, f"bad-state:{rec.state.value}"
        rec.cause = cause
        rec.terminated_height = height
        self._transition(rec, OTCEState.TERMINATED, height, cause)
        return True, ""

    def _apply_result(self, tx, decoded, height) -> tuple[bool, str]:
        _, sub = decoded
        rec = self.records.get(sub.eid)
        if rec is None:
            return False, "unknown-eid"
        if rec.state is not OTCEState.RUNNING:
            return False, f"bad-state:{rec.state.value}"
        signers = [s for s, _ in sub.quorum_sigs]
        if len(set(signers)) != len(signers):
            return False, "duplicate-signer"
        if any(s not in rec.group for s in signers):
            return False, "signer-not-in-group"
        if any(n not in rec.group for n, _ in sub.digests):
            return False, "digest-not-in-group"
        if len(signers) < rec.plan.verify_threshold:
            return False, "below-threshold"
        message = result_message(sub.eid, combined_digest(sub.digests))
        for signer, sig in sub.quorum_sigs:
            self.keystore.ensure(signer)
            if not self.keystore.verify(signer, message, sig):
                return False, "bad-signature"
        rec.results = sub
        rec.cause = CAUSE_RESULTS
        rec.terminated_height = height
        self._transition(rec, OTCEState.TERMINATED, height, CAUSE_RESULTS)
        return True, ""

    def _apply_update_plan(self, tx, decoded, height) -> tuple[bool, str]:
        _, eid, components = decoded
        rec = self.records.get(eid)
        if rec is None:
            return False, "unknown-eid"
        if tx.sender not in rec.group:
            return False, "not-a-member"
        if rec.state not in LIVE_STATES:
            return False, f"bad-state:{rec.state.value}"
        try:
            tv = trust_vector(components)
            new_plan = map_trust_to_plan(self.mapping, tv, len(rec.group))
        except PlanInfeasibleError:
            return False, "plan-infeasible"
        except ValueError:
            return False, "bad-trust-vector"
        rec.plan = new_plan
        return True, new_plan.protocol.value

    # -- expiry sweep ------------------------------------------------------

    def on_block_end(self, height: int) -> list[Transaction]:
        """System-signed auto-termination markers, in eid order, for every live
        record whose lifetime window has elapsed at this sealing height.

        Due entries leave the index here; the ledger commits the markers in
        the same seal, and they terminate their records."""
        due = []
        while self._expiry and self._expiry[0][0] <= height:
            eid = heapq.heappop(self._expiry)[1]
            if self.records[eid].state in LIVE_STATES:
                due.append(eid)
        due.sort()
        return [
            make_tx(self.keystore, SYSTEM_SENDER, TxKind.TERMINATE_OTCE,
                    terminate_payload(eid, CAUSE_EXPIRY, nonce=height))
            for eid in due
        ]

    # -- dump --------------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for eid in sorted(self.records):
            rec = self.records[eid]
            lines.append(f"{rec.eid} {rec.state.value} {','.join(rec.group)} "
                         f"{rec.delta_t} {rec.created_height}")
        return "\n".join(lines) + ("\n" if lines else "")
