import random
from collections import Counter

import pytest

from otcestack import codec
from otcestack.keys import KeyStore
from otcestack.ledger import Ledger, TxKind, make_tx, replay_chain, verify_chain
from otcestack.otce import (CAUSE_CLOSED, CAUSE_EXPIRY, CAUSE_RESULTS,
                            OTCERegistry, OTCEState, ResultSubmission,
                            combined_digest, create_payload, eid_for_tx,
                            result_message, resume_payload,
                            submit_result_payload, suspend_payload,
                            terminate_payload, update_plan_payload)
from otcestack.plan import PlanMapping, Protocol, make_plan

GROUP4 = ("n1", "n2", "n3", "n4")


def fresh():
    ks = KeyStore(11)
    ledger = Ledger(ks)
    reg = OTCERegistry(ks, PlanMapping())
    ledger.register_contract(reg)
    return ks, ledger, reg


def create(ks, ledger, group=GROUP4, delta_t=100, protocol=Protocol.PBFT,
           sender=None, nonce=0):
    plan = make_plan(protocol, len(group))
    tx = make_tx(ks, sender or group[0], TxKind.CREATE_OTCE,
                 create_payload(group, delta_t, plan, nonce))
    ok, reason = ledger.submit_tx(tx)
    assert ok, reason
    ledger.seal_block()
    return eid_for_tx(tx.tx_id)


def send(ks, ledger, sender, kind, payload):
    ok, reason = ledger.submit_tx(make_tx(ks, sender, kind, payload))
    assert ok, reason
    block = ledger.seal_block()
    return block.status[0]


def good_submission(ks, eid, group, n_sigs):
    digests = tuple(sorted((n, codec.digest("task", n)) for n in group))
    message = result_message(eid, combined_digest(digests))
    sigs = []
    for signer in sorted(group)[:n_sigs]:
        ks.ensure(signer)
        sigs.append((signer, ks.sign(signer, message)))
    return ResultSubmission(eid, digests, tuple(sigs))


# -- creation --------------------------------------------------------------

def test_create_promotes_to_running_in_one_seal():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    rec = reg.record(eid)
    assert rec.state is OTCEState.RUNNING
    assert rec.group == GROUP4
    assert rec.created_height == 1
    assert rec.expiry_height == 101
    trail = [(a, b) for e, a, b, _, _ in reg.transitions if e == eid]
    assert trail == [(OTCEState.NEW, OTCEState.RUNNING)]


def test_create_id_comes_from_tx_id():
    ks, ledger, reg = fresh()
    plan = make_plan(Protocol.PBFT, 4)
    tx = make_tx(ks, "n1", TxKind.CREATE_OTCE, create_payload(GROUP4, 10, plan, 0))
    ledger.submit_tx(tx)
    block = ledger.seal_block()
    assert block.status[0] == (True, eid_for_tx(tx.tx_id))
    assert eid_for_tx(tx.tx_id) == "E" + tx.tx_id.hex()[:12]


def test_create_refuses_plan_group_mismatch():
    ks, ledger, _ = fresh()
    plan = make_plan(Protocol.PBFT, 5)              # wrong size for a 4-group
    tx = make_tx(ks, "n1", TxKind.CREATE_OTCE, create_payload(GROUP4, 10, plan, 0))
    ledger.submit_tx(tx)
    assert ledger.seal_block().status[0] == (False, "plan-mismatch")


def test_create_refuses_tampered_plan_numbers():
    ks, ledger, _ = fresh()
    plan = make_plan(Protocol.PBFT, 4)
    bad = type(plan)(plan.protocol, plan.n, plan.f_max, plan.quorum + 1,
                     plan.verify_threshold)
    tx = make_tx(ks, "n1", TxKind.CREATE_OTCE, create_payload(GROUP4, 10, bad, 0))
    ledger.submit_tx(tx)
    assert ledger.seal_block().status[0] == (False, "plan-mismatch")


def test_create_refuses_nonpositive_lifetime():
    ks, ledger, _ = fresh()
    plan = make_plan(Protocol.PBFT, 4)
    tx = make_tx(ks, "n1", TxKind.CREATE_OTCE, create_payload(GROUP4, 0, plan, 0))
    ledger.submit_tx(tx)
    assert ledger.seal_block().status[0] == (False, "bad-delta")


# -- suspend / resume ------------------------------------------------------

def test_suspend_resume_cycle():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "n2", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, b"snapshot", 1)) == (True, "")
    assert reg.record(eid).state is OTCEState.SUSPEND
    assert reg.record(eid).suspend_meta == b"snapshot"
    assert send(ks, ledger, "n3", TxKind.RESUME_OTCE,
                resume_payload(eid, 2)) == (True, "")
    assert reg.record(eid).state is OTCEState.RUNNING


def test_suspend_by_outsider_refused():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "mallory", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, b"", 1)) == (False, "not-a-member")
    assert reg.record(eid).state is OTCEState.RUNNING


def test_double_suspend_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, b"", 1))
    assert send(ks, ledger, "n1", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, b"", 2)) == (False, "bad-state:Suspend")


def test_resume_while_running_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "n1", TxKind.RESUME_OTCE,
                resume_payload(eid, 1)) == (False, "bad-state:Running")


def test_unknown_eid_refused():
    ks, ledger, _ = fresh()
    create(ks, ledger)
    assert send(ks, ledger, "n1", TxKind.SUSPEND_OTCE,
                suspend_payload("E000000000000", b"", 1)) == (False, "unknown-eid")


# -- member termination ----------------------------------------------------

def test_member_close_records_cause():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "n4", TxKind.TERMINATE_OTCE,
                terminate_payload(eid, CAUSE_CLOSED, 1)) == (True, "")
    rec = reg.record(eid)
    assert rec.state is OTCEState.TERMINATED
    assert rec.cause == CAUSE_CLOSED
    assert rec.terminated_height == 2


def test_close_from_suspend_allowed():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, b"", 1))
    assert send(ks, ledger, "n1", TxKind.TERMINATE_OTCE,
                terminate_payload(eid, CAUSE_CLOSED, 2)) == (True, "")
    assert reg.record(eid).cause == CAUSE_CLOSED


def test_termination_is_absorbing():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.TERMINATE_OTCE, terminate_payload(eid, CAUSE_CLOSED, 1))
    assert send(ks, ledger, "n1", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, b"", 2)) == (False, "bad-state:Terminated")
    assert send(ks, ledger, "n1", TxKind.RESUME_OTCE,
                resume_payload(eid, 3)) == (False, "bad-state:Terminated")
    assert send(ks, ledger, "n1", TxKind.TERMINATE_OTCE,
                terminate_payload(eid, CAUSE_CLOSED, 4)) == (False, "bad-state:Terminated")
    assert reg.record(eid).terminated_height == 2


# -- expiry sweep ----------------------------------------------------------

def test_expiry_fires_at_inclusive_height():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, delta_t=3)             # created at height 1, expires at 4
    for h in (2, 3):
        ledger.seal_block()
        assert reg.record(eid).state is OTCEState.RUNNING, f"height {h}"
    block = ledger.seal_block()
    assert block.height == 4
    rec = reg.record(eid)
    assert rec.state is OTCEState.TERMINATED
    assert rec.cause == CAUSE_EXPIRY
    assert rec.terminated_height == 4
    marker = block.txs[-1]
    assert marker.kind is TxKind.TERMINATE_OTCE and marker.sender == "system"


def test_suspension_does_not_pause_countdown():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, delta_t=3)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, b"", 1))  # height 2
    ledger.seal_block()                                                        # height 3
    ledger.seal_block()                                                        # height 4
    rec = reg.record(eid)
    assert rec.state is OTCEState.TERMINATED
    assert rec.cause == CAUSE_EXPIRY
    assert rec.terminated_height == 4


def test_expiry_marker_survives_replay():
    ks, ledger, reg = fresh()
    create(ks, ledger, delta_t=2)
    for _ in range(4):
        ledger.seal_block()
    assert verify_chain(ledger.chain, ks) is None
    replay_reg = OTCERegistry(KeyStore(11), PlanMapping())
    assert replay_chain(ledger.chain, [replay_reg]) == []
    assert replay_reg.dump() == reg.dump()


def test_expiry_skips_already_terminated():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, delta_t=2)
    send(ks, ledger, "n1", TxKind.TERMINATE_OTCE, terminate_payload(eid, CAUSE_CLOSED, 1))
    block = ledger.seal_block()                     # height 3, past expiry
    assert block.txs == ()
    assert reg.record(eid).cause == CAUSE_CLOSED


class SweepChecked(OTCERegistry):
    """Checks every sweep's markers against a scan of all live records."""

    def __init__(self, keystore, mapping):
        super().__init__(keystore, mapping)
        self.swept: list[list[str]] = []

    def on_block_end(self, height):
        want = sorted(r.eid for r in self.alive() if height >= r.expiry_height)
        markers = super().on_block_end(height)
        got = [self.decode_payload(m.kind, m.payload)[1] for m in markers]
        assert got == want, f"height {height}"
        self.swept.append(got)
        return markers


def test_expiry_index_matches_full_scan():
    ks = KeyStore(11)
    ledger = Ledger(ks)
    reg = SweepChecked(ks, PlanMapping())
    ledger.register_contract(reg)
    rng = random.Random(4242)
    plan = make_plan(Protocol.PBFT, len(GROUP4))
    nonce = 0
    for _ in range(300):
        for _ in range(rng.randint(0, 4)):
            nonce += 1
            delta_t = rng.choice((1, 1, 2, 3, 5, 8, 13))
            tx = make_tx(ks, rng.choice(GROUP4), TxKind.CREATE_OTCE,
                         create_payload(GROUP4, delta_t, plan, nonce))
            assert ledger.submit_tx(tx) == (True, "ok")
        for rec in reg.alive():
            nonce += 1
            roll = rng.random()
            if roll < 0.25:
                kind, payload = TxKind.SUSPEND_OTCE, suspend_payload(rec.eid, b"", nonce)
            elif roll < 0.4:
                kind, payload = TxKind.RESUME_OTCE, resume_payload(rec.eid, nonce)
            elif roll < 0.45:
                kind = TxKind.TERMINATE_OTCE
                payload = terminate_payload(rec.eid, CAUSE_CLOSED, nonce)
            elif roll < 0.5:
                kind = TxKind.SUBMIT_RESULT
                payload = submit_result_payload(
                    good_submission(ks, rec.eid, GROUP4, 3), nonce)
            else:
                continue
            tx = make_tx(ks, rng.choice(GROUP4), kind, payload)
            assert ledger.submit_tx(tx) == (True, "ok")
        ledger.seal_block()
        height = ledger.current_height()
        assert all(r.expiry_height > height for r in reg.alive())

    # the run covered the cases the index has to get right
    causes = Counter(rec.cause for rec in reg.records.values())
    assert causes[CAUSE_EXPIRY] and causes[CAUSE_CLOSED] and causes[CAUSE_RESULTS]
    assert any(src is OTCEState.SUSPEND and note == CAUSE_EXPIRY
               for _, src, _, _, note in reg.transitions)
    assert any(rec.cause != CAUSE_EXPIRY and rec.expiry_height <= height
               for rec in reg.records.values())
    assert any(reg.records[eid].delta_t == 1 for eids in reg.swept for eid in eids)
    assert any(len(eids) >= 2 for eids in reg.swept)
    replayed = OTCERegistry(ks, PlanMapping())
    assert replay_chain(ledger.chain, [replayed]) == []
    assert replayed.dump() == reg.dump()


def test_sweep_orders_markers_by_eid_across_heights():
    # a registry restored by replay has swept nothing yet, so one sweep far
    # ahead finds entries of several expiry heights due at once
    ks, ledger, _ = fresh()
    eids = [create(ks, ledger, delta_t=50 - 7 * i, nonce=i) for i in range(6)]
    restored = OTCERegistry(ks, PlanMapping())
    assert replay_chain(ledger.chain, [restored]) == []
    markers = restored.on_block_end(100)
    got = [restored.decode_payload(m.kind, m.payload)[1] for m in markers]
    assert got == sorted(eids)
    assert restored.on_block_end(101) == []


# -- verified results ------------------------------------------------------

def test_result_with_quorum_terminates():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)                        # pbft n=4: threshold 3
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(sub, 1)) == (True, "")
    rec = reg.record(eid)
    assert rec.state is OTCEState.TERMINATED
    assert rec.cause == CAUSE_RESULTS
    assert rec.results == sub


def test_result_below_threshold_refused():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    sub = good_submission(ks, eid, GROUP4, n_sigs=2)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(sub, 1)) == (False, "below-threshold")
    assert reg.record(eid).state is OTCEState.RUNNING


def test_result_duplicate_signer_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    dup = ResultSubmission(eid, sub.digests,
                           (sub.quorum_sigs[0],) + sub.quorum_sigs[:2])
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(dup, 1)) == (False, "duplicate-signer")


def test_result_outsider_signer_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    message = result_message(eid, combined_digest(sub.digests))
    ks.ensure("mallory")
    outsider = ResultSubmission(eid, sub.digests,
                                sub.quorum_sigs[:2] + (("mallory", ks.sign("mallory", message)),))
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(outsider, 1)) == (False, "signer-not-in-group")


def test_result_forged_signature_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    signer, sig = sub.quorum_sigs[0]
    forged = ResultSubmission(eid, sub.digests,
                              ((signer, bytes(b ^ 1 for b in sig)),) + sub.quorum_sigs[1:])
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(forged, 1)) == (False, "bad-signature")


def test_result_signature_binds_digest_set():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    other = tuple(sorted((n, codec.digest("other", n)) for n in GROUP4))
    swapped = ResultSubmission(eid, other, sub.quorum_sigs)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(swapped, 1)) == (False, "bad-signature")


def test_result_while_suspended_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, b"", 1))
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(sub, 2)) == (False, "bad-state:Suspend")


def test_paxos_group_threshold():
    ks, ledger, reg = fresh()
    group = ("m1", "m2", "m3", "m4", "m5")
    eid = create(ks, ledger, group=group, protocol=Protocol.PAXOS)
    assert reg.record(eid).plan.verify_threshold == 3
    sub = good_submission(ks, eid, group, n_sigs=3)
    assert send(ks, ledger, "m1", TxKind.SUBMIT_RESULT,
                submit_result_payload(sub, 1)) == (True, "")


# -- plan updates ----------------------------------------------------------

def test_update_plan_switches_protocol():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, protocol=Protocol.PBFT)
    assert send(ks, ledger, "n1", TxKind.UPDATE_PLAN,
                update_plan_payload(eid, (0.95,), 1)) == (True, "paxos")
    plan = reg.record(eid).plan
    assert plan.protocol is Protocol.PAXOS
    assert (plan.f_max, plan.quorum) == (1, 3)
    assert send(ks, ledger, "n1", TxKind.UPDATE_PLAN,
                update_plan_payload(eid, (0.3,), 2)) == (True, "pbft")
    assert reg.record(eid).plan.protocol is Protocol.PBFT


def test_update_plan_infeasible_for_small_group():
    ks, ledger, reg = fresh()
    group = ("a", "b", "c")
    eid = create(ks, ledger, group=group, protocol=Protocol.PAXOS)
    assert send(ks, ledger, "a", TxKind.UPDATE_PLAN,
                update_plan_payload(eid, (0.1,), 1)) == (False, "plan-infeasible")
    assert reg.record(eid).plan.protocol is Protocol.PAXOS


def test_update_plan_rejects_bad_vector():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "n1", TxKind.UPDATE_PLAN,
                update_plan_payload(eid, (1.5,), 1)) == (False, "bad-trust-vector")


def test_update_plan_outsider_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "eve", TxKind.UPDATE_PLAN,
                update_plan_payload(eid, (0.9,), 1)) == (False, "not-a-member")


# -- bookkeeping -----------------------------------------------------------

def test_alive_lists_running_and_suspended():
    ks, ledger, reg = fresh()
    e1 = create(ks, ledger, nonce=1)
    e2 = create(ks, ledger, nonce=2)
    e3 = create(ks, ledger, nonce=3)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(e2, b"", 10))
    send(ks, ledger, "n1", TxKind.TERMINATE_OTCE, terminate_payload(e3, CAUSE_CLOSED, 11))
    assert {r.eid for r in reg.alive()} == {e1, e2}


def test_dump_format():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, delta_t=7)
    line = reg.dump().strip()
    assert line == f"{eid} Running n1,n2,n3,n4 7 1"
