"""Sandbox lifecycle contract: creation, suspend/resume, results, expiry.

Each record tracks (eid, state, group, lifetime, security plan, and how
and when it terminated). A payload carries only what the contract reads:
a suspend, resume or terminate names the sandbox and nothing else, and a
result carries the execution's output digest and the quorum's signatures
over `result_message(eid, digest)`. One table, `OTCERegistry.TXS`, gives
each tx kind its payload's shape, (tag, *fields, nonce), and its rule:
`decode_payload` checks a payload against its kind's shape and returns the
fields between the tag and the nonce (a suspend, resume or terminate gives
`(eid,)`), `apply` runs its kind's rule on them, and `KINDS` is the
table's keys, so a new tx kind is one row.

The plan is not sent: a create and an update-plan carry the group's trust
vector, and the contract maps it to a plan under its `PlanMapping` in one
helper, committing the chosen protocol as the tx's status. Replaying a
chain therefore re-derives every plan, and a trust that maps to no
feasible plan is a committed refusal. Each registry maps a distinct trust
vector and group size once and keeps the plan with its status, so every
tx that gets one plan commits one shared status tuple; a fresh registry,
so every replay, starts without any and derives its own.

Records hold each fact once: a registry keeps one tuple per distinct
sorted group, and every record of that group shares it, with the member
names of the first create that named it.

Creation promotes straight to Running inside the sealing step that
commits it. Termination is absorbing and has three causes: a verified
result submission ("results"), a member-initiated close ("closed"), and
the end-of-block expiry sweep ("expiry") once `created_height + delta_t`
is reached — the countdown keeps running while a record is suspended.
The contract derives the cause from the sender: a system-signed
terminate is an expiry and is refused ("not-due") before that height.

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
from .plan import (PlanInfeasibleError, PlanMapping, SecurityPlan,
                   certificate_refusal, map_trust_to_plan, trust_vector)


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


@dataclass(slots=True)
class OTCERecord:
    eid: str
    state: OTCEState
    group: tuple[str, ...]
    delta_t: int
    created_height: int
    plan: SecurityPlan
    cause: str | None = None
    terminated_height: int | None = None

    @property
    def expiry_height(self) -> int:
        return self.created_height + self.delta_t


# suspend and resume: the state the record must be in, the state it moves to
_SWITCH = {TxKind.SUSPEND_OTCE: (OTCEState.RUNNING, OTCEState.SUSPEND),
           TxKind.RESUME_OTCE: (OTCEState.SUSPEND, OTCEState.RUNNING)}

# the shape entries of a create's group and of a trust vector
_GROUP = codec.list_of(str)
_TRUST = codec.list_of(float)


# -- payload encodings -----------------------------------------------------

def create_payload(group, delta_t: int, components, nonce: int) -> bytes:
    return codec.pack("create", sorted(group), delta_t, [float(c) for c in components],
                      nonce)


def lifecycle_payload(kind: TxKind, eid: str, nonce: int) -> bytes:
    """A suspend, resume or terminate of `eid`."""
    return codec.pack(LIFECYCLE_TAGS[kind], eid, nonce)


def submit_result_payload(eid: str, digest: bytes, sigs, nonce: int) -> bytes:
    """A result: the output digest and the (signer, signature) pairs over
    `result_message(eid, digest)`, sorted by signer."""
    return codec.pack("result", eid, digest, [[s, sig] for s, sig in sorted(sigs)], nonce)


def update_plan_payload(eid: str, components, nonce: int) -> bytes:
    return codec.pack("plan", eid, [float(c) for c in components], nonce)


def result_message(eid: str, digest: bytes) -> bytes:
    """The byte string each quorum member signs to endorse a result."""
    return codec.pack("result-sig", eid, digest)


def eid_for_tx(tx_id: bytes) -> str:
    return "E" + tx_id.hex()[:12]


class OTCERegistry:
    """Contract state machine for sandbox records, driven by committed txs."""

    def __init__(self, keystore: KeyStore, mapping: PlanMapping | None = None):
        self.keystore = keystore
        self.mapping = mapping if mapping is not None else PlanMapping()
        self.records: dict[str, OTCERecord] = {}
        # (eid, from, to, height, note) — audit trail for lifecycle checks
        self.transitions: list[tuple[str, OTCEState, OTCEState, int, str]] = []
        # (expiry_height, eid) min-heap of every created record; entries of
        # records that terminated earlier are dropped when they come due
        self._expiry: list[tuple[int, str]] = []
        # (components, n) as decoded -> what `_plan` returns for them
        self._plans: dict[tuple, tuple[SecurityPlan | None, tuple[bool, str]]] = {}
        # sorted group -> the one tuple every record of that group holds
        self._groups: dict[tuple[str, ...], tuple[str, ...]] = {}

    # -- payload validation (structural; semantic checks live in apply) ----

    def decode_payload(self, kind: TxKind, payload: bytes) -> tuple:
        """The fields between the payload's tag and its nonce, which `apply`
        reads; a result's (signer, signature) pairs are checked here too."""
        fields = codec.unpack(payload, self.TXS[kind][0])[1:-1]
        if kind is TxKind.SUBMIT_RESULT:
            for pair in fields[2]:
                codec.check_record(pair, codec.PAIR)
        return fields

    # -- state transitions -------------------------------------------------

    def _transition(self, rec: OTCERecord, new_state: OTCEState, height: int,
                    note: str) -> None:
        if (rec.state, new_state) not in LEGAL_TRANSITIONS:
            raise RuntimeError(
                f"illegal transition {rec.state.value} -> {new_state.value} for {rec.eid}")
        self.transitions.append((rec.eid, rec.state, new_state, height, note))
        rec.state = new_state

    def _member_record(self, tx, eid: str, states) -> tuple[OTCERecord | None, str]:
        """The record of `eid` when the sender is in its group and its state
        is one of `states`; else None and the first refusal, in that order."""
        rec = self.records.get(eid)
        if rec is None:
            return None, "unknown-eid"
        if tx.sender not in rec.group:
            return None, "not-a-member"
        if rec.state not in states:
            return None, f"bad-state:{rec.state.value}"
        return rec, ""

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
        return self.TXS[tx.kind][1](self, tx, decoded, height)

    def _plan(self, components, n: int) -> tuple[SecurityPlan | None, tuple[bool, str]]:
        """The plan the mapping gives a group of n under this trust vector
        and the status a tx that gets it commits, or None and the refusal;
        derived once per distinct pair. A vector that is no trust vector (a
        NaN, a component outside [0, 1]) is refused without a memo entry: a
        decoded NaN equals no other, so its entries would only pile up."""
        key = (components, n)
        got = self._plans.get(key)
        if got is None:
            try:
                tv = trust_vector(components)
            except ValueError:
                return None, (False, "bad-trust-vector")
            try:
                plan = map_trust_to_plan(self.mapping, tv, n)
                got = plan, (True, plan.protocol.value)
            except PlanInfeasibleError:
                got = None, (False, "plan-infeasible")
            except ValueError:
                got = None, (False, "bad-trust-vector")
            self._plans[key] = got
        return got

    def _apply_create(self, tx, decoded, height) -> tuple[bool, str]:
        group, delta_t, components = decoded
        if not group:
            return False, "empty-group"
        if len(set(group)) != len(group):
            return False, "duplicate-members"
        if "" in group:
            return False, "empty-member"
        if delta_t < 1:
            return False, "bad-delta"
        plan, status = self._plan(components, len(group))
        if plan is None:
            return status
        eid = eid_for_tx(tx.tx_id)
        if eid in self.records:
            return False, "eid-collision"
        if tx.sender not in group:
            return False, "not-a-member"
        key = tuple(sorted(group))
        group = self._groups.setdefault(key, key)
        rec = OTCERecord(eid=eid, state=OTCEState.NEW, group=group,
                         delta_t=delta_t, created_height=height, plan=plan)
        self.records[eid] = rec
        heapq.heappush(self._expiry, (rec.expiry_height, eid))
        # creation and promotion to Running commit in the same sealing step
        self._transition(rec, OTCEState.RUNNING, height, "create")
        return status

    def _apply_switch(self, tx, decoded, height) -> tuple[bool, str]:
        """Suspend or resume: a member moves a record between Running and
        Suspend."""
        (eid,) = decoded
        before, after = _SWITCH[tx.kind]
        rec, refusal = self._member_record(tx, eid, (before,))
        if rec is None:
            return False, refusal
        self._transition(rec, after, height, LIFECYCLE_TAGS[tx.kind])
        return True, ""

    def _apply_terminate(self, tx, decoded, height) -> tuple[bool, str]:
        (eid,) = decoded
        rec = self.records.get(eid)
        if rec is None:
            return False, "unknown-eid"
        if tx.sender == SYSTEM_SENDER:
            if height < rec.expiry_height:
                return False, "not-due"
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
        eid, digest, sigs = decoded
        rec = self.records.get(eid)
        if rec is None:
            return False, "unknown-eid"
        if rec.state is not OTCEState.RUNNING:
            return False, f"bad-state:{rec.state.value}"
        message = result_message(eid, digest)
        refusal = certificate_refusal(rec.plan.quorum, rec.group, sigs,
                                      self.keystore, lambda signer: message)
        if refusal is not None:
            return False, refusal
        rec.cause = CAUSE_RESULTS
        rec.terminated_height = height
        self._transition(rec, OTCEState.TERMINATED, height, CAUSE_RESULTS)
        return True, ""

    def _apply_update_plan(self, tx, decoded, height) -> tuple[bool, str]:
        eid, components = decoded
        rec, refusal = self._member_record(tx, eid, LIVE_STATES)
        if rec is None:
            return False, refusal
        plan, status = self._plan(components, len(rec.group))
        if plan is not None:
            rec.plan = plan
        return status

    # tx kind -> the shape of its payload, (tag, *fields, nonce), and the
    # rule `apply` runs on its fields; plain functions, so the table holds
    # no reference to any registry
    TXS = {
        TxKind.CREATE_OTCE: (("create", _GROUP, int, _TRUST, int), _apply_create),
        TxKind.SUSPEND_OTCE: (("suspend", str, int), _apply_switch),
        TxKind.RESUME_OTCE: (("resume", str, int), _apply_switch),
        TxKind.SUBMIT_RESULT: (("result", str, bytes, tuple, int), _apply_result),
        TxKind.TERMINATE_OTCE: (("terminate", str, int), _apply_terminate),
        TxKind.UPDATE_PLAN: (("plan", str, _TRUST, int), _apply_update_plan),
    }
    KINDS = frozenset(TXS)

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
                    lifecycle_payload(TxKind.TERMINATE_OTCE, eid, nonce=height))
            for eid in due
        ]

    # -- dump --------------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for eid in sorted(self.records):
            rec = self.records[eid]
            lines.append(f"{rec.eid} {rec.state.value} {','.join(rec.group)} "
                         f"{rec.delta_t} {rec.created_height}\n")
        return "".join(lines)


# The tag of each payload that only names a sandbox: (tag, eid, nonce).
LIFECYCLE_TAGS = {kind: OTCERegistry.TXS[kind][0][0] for kind in
                  (TxKind.SUSPEND_OTCE, TxKind.RESUME_OTCE, TxKind.TERMINATE_OTCE)}
