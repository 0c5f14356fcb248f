import gc
import random
import weakref
from collections import Counter

import pytest

from otcestack import codec
from otcestack.keys import KeyStore
from otcestack.ledger import Ledger, TxKind, make_tx, replay_chain, verify_chain
from otcestack.otce import (CAUSE_CLOSED, CAUSE_EXPIRY, CAUSE_RESULTS,
                            OTCERegistry, OTCEState, create_payload, eid_for_tx,
                            lifecycle_payload, result_message,
                            submit_result_payload, update_plan_payload)
from otcestack.plan import PlanMapping, Protocol

GROUP4 = ("n1", "n2", "n3", "n4")
# trust vectors on either side of the default mapping's tau (0.8)
LOW, HIGH = (0.5,), (0.9,)


def fresh():
    ks = KeyStore(11)
    ledger = Ledger(ks)
    reg = OTCERegistry(ks, PlanMapping())
    ledger.register_contract(reg)
    return ks, ledger, reg


def create(ks, ledger, group=GROUP4, delta_t=100, trust=LOW, sender=None, nonce=0):
    tx = make_tx(ks, sender or group[0], TxKind.CREATE_OTCE,
                 create_payload(group, delta_t, trust, nonce))
    ok, reason = ledger.submit_tx(tx)
    assert ok, reason
    ledger.seal_block()
    return eid_for_tx(tx.tx_id)


def send(ks, ledger, sender, kind, payload):
    ok, reason = ledger.submit_tx(make_tx(ks, sender, kind, payload))
    assert ok, reason
    block = ledger.seal_block()
    return block.status[0]


def suspend_payload(eid, nonce):
    return lifecycle_payload(TxKind.SUSPEND_OTCE, eid, nonce)


def resume_payload(eid, nonce):
    return lifecycle_payload(TxKind.RESUME_OTCE, eid, nonce)


def terminate_payload(eid, nonce):
    return lifecycle_payload(TxKind.TERMINATE_OTCE, eid, nonce)


def good_submission(ks, eid, group, n_sigs):
    """(eid, digest, sigs) of a result the first n_sigs members sign."""
    digest = codec.digest("task", eid)
    message = result_message(eid, digest)
    sigs = tuple((signer, ks.sign(signer, message)) for signer in sorted(group)[:n_sigs])
    return eid, digest, sigs


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
    tx = make_tx(ks, "n1", TxKind.CREATE_OTCE, create_payload(GROUP4, 10, LOW, 0))
    ledger.submit_tx(tx)
    ledger.seal_block()
    assert eid_for_tx(tx.tx_id) == "E" + tx.tx_id.hex()[:12]
    assert list(reg.records) == [eid_for_tx(tx.tx_id)]


@pytest.mark.parametrize("trust,protocol", [(LOW, Protocol.PBFT), (HIGH, Protocol.PAXOS)])
def test_create_maps_trust_to_plan_and_commits_the_protocol(trust, protocol):
    ks, ledger, reg = fresh()
    tx = make_tx(ks, "n1", TxKind.CREATE_OTCE, create_payload(GROUP4, 10, trust, 0))
    ledger.submit_tx(tx)
    assert ledger.seal_block().status[0] == (True, protocol.value)
    plan = reg.record(eid_for_tx(tx.tx_id)).plan
    assert (plan.protocol, plan.n) == (protocol, 4)


def create_status(group, delta_t=10, trust=LOW, sender="n1"):
    """The committed status of one create, and the registry's records."""
    ks, ledger, reg = fresh()
    tx = make_tx(ks, sender, TxKind.CREATE_OTCE, create_payload(group, delta_t, trust, 0))
    assert ledger.submit_tx(tx) == (True, "ok")
    status = ledger.seal_block().status[0]
    assert replay_chain(ledger.chain, [OTCERegistry(ks, PlanMapping())]) == []
    return status, reg.records


@pytest.mark.parametrize("group,trust,reason", [
    ((), LOW, "empty-group"),
    (("n1", "n1", "n2", "n3", "n4"), LOW, "duplicate-members"),
    (("", "n1", "n2", "n3"), HIGH, "empty-member"),
    # below tau a 3-member group would need the byzantine plan, which needs 4
    (("n1", "n2", "n3"), (0.1,), "plan-infeasible"),
    (GROUP4, (1.5,), "bad-trust-vector"),
    (GROUP4, (float("nan"),), "bad-trust-vector"),
    (GROUP4, (-0.1,), "bad-trust-vector"),
    (GROUP4, (), "bad-trust-vector"),
    (GROUP4, (0.5, 0.5), "bad-trust-vector"),       # wider than the mapping
])
def test_create_refusals(group, trust, reason):
    assert create_status(group, trust=trust) == ((False, reason), {})


def test_create_refuses_nonpositive_lifetime():
    assert create_status(GROUP4, delta_t=0) == ((False, "bad-delta"), {})


def test_create_by_a_non_member_refused():
    assert create_status(GROUP4, sender="mallory") == ((False, "not-a-member"), {})


def test_a_bool_lifetime_is_malformed_at_admission():
    # True == 1 and signs as the same tx, but an int field takes no bool
    ks, ledger, reg = fresh()
    payload = codec.pack("create", ["a", "b", "c", "d"], True, [0.9], 0)
    tx = make_tx(ks, "a", TxKind.CREATE_OTCE, payload)
    assert ledger.submit_tx(tx) == (False, "malformed-payload")
    assert ledger.mempool == [] and ledger.seal_block().txs == ()


# -- suspend / resume ------------------------------------------------------

def test_suspend_resume_cycle():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "n2", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, 1)) == (True, "")
    assert reg.record(eid).state is OTCEState.SUSPEND
    assert send(ks, ledger, "n3", TxKind.RESUME_OTCE,
                resume_payload(eid, 2)) == (True, "")
    assert reg.record(eid).state is OTCEState.RUNNING


def test_suspend_by_outsider_refused():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "mallory", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, 1)) == (False, "not-a-member")
    assert reg.record(eid).state is OTCEState.RUNNING


def test_double_suspend_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, 1))
    assert send(ks, ledger, "n1", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, 2)) == (False, "bad-state:Suspend")


def test_resume_while_running_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "n1", TxKind.RESUME_OTCE,
                resume_payload(eid, 1)) == (False, "bad-state:Running")


def test_unknown_eid_refused():
    ks, ledger, _ = fresh()
    create(ks, ledger)
    assert send(ks, ledger, "n1", TxKind.SUSPEND_OTCE,
                suspend_payload("E000000000000", 1)) == (False, "unknown-eid")


# -- member termination ----------------------------------------------------

def test_member_close_records_cause():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    assert send(ks, ledger, "n4", TxKind.TERMINATE_OTCE,
                terminate_payload(eid, 1)) == (True, "")
    rec = reg.record(eid)
    assert rec.state is OTCEState.TERMINATED
    assert rec.cause == CAUSE_CLOSED
    assert rec.terminated_height == 2


def test_close_from_suspend_allowed():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, 1))
    assert send(ks, ledger, "n1", TxKind.TERMINATE_OTCE,
                terminate_payload(eid, 2)) == (True, "")
    assert reg.record(eid).cause == CAUSE_CLOSED


def test_termination_is_absorbing():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.TERMINATE_OTCE, terminate_payload(eid, 1))
    assert send(ks, ledger, "n1", TxKind.SUSPEND_OTCE,
                suspend_payload(eid, 2)) == (False, "bad-state:Terminated")
    assert send(ks, ledger, "n1", TxKind.RESUME_OTCE,
                resume_payload(eid, 3)) == (False, "bad-state:Terminated")
    assert send(ks, ledger, "n1", TxKind.TERMINATE_OTCE,
                terminate_payload(eid, 4)) == (False, "bad-state:Terminated")
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
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, 1))  # height 2
    ledger.seal_block()                                                  # height 3
    ledger.seal_block()                                                  # height 4
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


def test_system_terminate_before_expiry_is_refused_as_not_due():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, delta_t=3)             # created at height 1, expires at 4
    forged = terminate_payload(eid, 1)
    assert send(ks, ledger, "system", TxKind.TERMINATE_OTCE, forged) == (False, "not-due")
    assert reg.record(eid).state is OTCEState.RUNNING
    ledger.seal_block()                             # height 3
    # due at height 4: a system terminate there is the expiry, and the
    # sweep then finds nothing live to mark
    due = terminate_payload(eid, 2)
    assert send(ks, ledger, "system", TxKind.TERMINATE_OTCE, due) == (True, "")
    assert len(ledger.chain[-1].txs) == 1
    rec = reg.record(eid)
    assert (rec.cause, rec.terminated_height) == (CAUSE_EXPIRY, 4)
    assert replay_chain(ledger.chain, [OTCERegistry(KeyStore(11), PlanMapping())]) == []


def test_expiry_skips_already_terminated():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, delta_t=2)
    send(ks, ledger, "n1", TxKind.TERMINATE_OTCE, terminate_payload(eid, 1))
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
        got = [self.decode_payload(m.kind, m.payload)[0] for m in markers]
        assert got == want, f"height {height}"
        self.swept.append(got)
        return markers


def test_expiry_index_matches_full_scan():
    ks = KeyStore(11)
    ledger = Ledger(ks)
    reg = SweepChecked(ks, PlanMapping())
    ledger.register_contract(reg)
    rng = random.Random(4242)
    nonce = 0
    for _ in range(300):
        for _ in range(rng.randint(0, 4)):
            nonce += 1
            delta_t = rng.choice((1, 1, 2, 3, 5, 8, 13))
            tx = make_tx(ks, rng.choice(GROUP4), TxKind.CREATE_OTCE,
                         create_payload(GROUP4, delta_t, LOW, nonce))
            assert ledger.submit_tx(tx) == (True, "ok")
        for rec in reg.alive():
            nonce += 1
            roll = rng.random()
            if roll < 0.25:
                kind, payload = TxKind.SUSPEND_OTCE, suspend_payload(rec.eid, nonce)
            elif roll < 0.4:
                kind, payload = TxKind.RESUME_OTCE, resume_payload(rec.eid, nonce)
            elif roll < 0.45:
                kind = TxKind.TERMINATE_OTCE
                payload = terminate_payload(rec.eid, nonce)
            elif roll < 0.5:
                kind = TxKind.SUBMIT_RESULT
                payload = submit_result_payload(
                    *good_submission(ks, rec.eid, GROUP4, 3), nonce)
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
    got = [restored.decode_payload(m.kind, m.payload)[0] for m in markers]
    assert got == sorted(eids)
    assert restored.on_block_end(101) == []


# -- verified results ------------------------------------------------------

def test_result_with_quorum_terminates():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)                        # pbft n=4: threshold 3
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(*sub, 1)) == (True, "")
    rec = reg.record(eid)
    assert rec.state is OTCEState.TERMINATED
    assert rec.cause == CAUSE_RESULTS
    assert rec.terminated_height == 2


def test_result_below_threshold_refused():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    sub = good_submission(ks, eid, GROUP4, n_sigs=2)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(*sub, 1)) == (False, "below-threshold")
    assert reg.record(eid).state is OTCEState.RUNNING


def test_result_duplicate_signer_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    _, digest, sigs = good_submission(ks, eid, GROUP4, n_sigs=3)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(eid, digest, (sigs[0],) + sigs[:2], 1)
                ) == (False, "duplicate-signer")


def test_result_outsider_signer_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    _, digest, sigs = good_submission(ks, eid, GROUP4, n_sigs=3)
    outsider = ("mallory", ks.sign("mallory", result_message(eid, digest)))
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(eid, digest, sigs[:2] + (outsider,), 1)
                ) == (False, "signer-not-in-group")


def test_result_forged_signature_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    _, digest, sigs = good_submission(ks, eid, GROUP4, n_sigs=3)
    signer, sig = sigs[0]
    forged = ((signer, bytes(b ^ 1 for b in sig)),) + sigs[1:]
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(eid, digest, forged, 1)) == (False, "bad-signature")


def test_result_signature_binds_digest_set():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    _, _, sigs = good_submission(ks, eid, GROUP4, n_sigs=3)
    other = codec.digest("other", eid)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(eid, other, sigs, 1)) == (False, "bad-signature")


def test_result_while_suspended_refused():
    ks, ledger, _ = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, 1))
    sub = good_submission(ks, eid, GROUP4, n_sigs=3)
    assert send(ks, ledger, "n1", TxKind.SUBMIT_RESULT,
                submit_result_payload(*sub, 2)) == (False, "bad-state:Suspend")


def test_paxos_group_threshold():
    ks, ledger, reg = fresh()
    group = ("m1", "m2", "m3", "m4", "m5")
    eid = create(ks, ledger, group=group, trust=HIGH)
    assert reg.record(eid).plan.quorum == 3
    sub = good_submission(ks, eid, group, n_sigs=3)
    assert send(ks, ledger, "m1", TxKind.SUBMIT_RESULT,
                submit_result_payload(*sub, 1)) == (True, "")


# -- plan updates ----------------------------------------------------------

def test_update_plan_switches_protocol():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, trust=LOW)
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
    eid = create(ks, ledger, group=group, trust=HIGH)
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
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(e2, 10))
    send(ks, ledger, "n1", TxKind.TERMINATE_OTCE, terminate_payload(e3, 11))
    assert {r.eid for r in reg.alive()} == {e1, e2}


def test_registry_is_freed_without_the_cycle_collector():
    # the kind-to-rule table is module-level, so no registry refers to itself
    ks, ledger, reg = fresh()
    eid = create(ks, ledger)
    send(ks, ledger, "n1", TxKind.SUSPEND_OTCE, suspend_payload(eid, 1))
    ref = weakref.ref(reg)
    gc.disable()
    try:
        del ledger, reg
        assert ref() is None
    finally:
        gc.enable()


def test_dump_format():
    ks, ledger, reg = fresh()
    eid = create(ks, ledger, delta_t=7)
    line = reg.dump().strip()
    assert line == f"{eid} Running n1,n2,n3,n4 7 1"
