"""Chain simulation: fees, latency calibration, phases, escrow movement."""

import json
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd.errors import DeadlineError, FundsError, PhaseError
from anoncrowd.ledger import (
    COLLECTING,
    CONFISCATE,
    FINALIZED,
    PROCESSING,
    REFUND,
    SUBMIT_RESPONSE,
    VOID,
    ChainTaskParams,
    FeeParams,
    GasSchedule,
    LatencyModel,
    Ledger,
    LedgerRecord,
    gas_by_sender,
    included_responses,
)

ETH = 10**18
GAS = GasSchedule()
FEE = FeeParams()


def make_ledger(seed=7, **kw):
    return Ledger(seed=seed, **kw)


def funded_ledger(accounts, wei=100 * ETH, **kw):
    led = make_ledger(**kw)
    for a in accounts:
        led.fund(a, wei)
    return led


def task_params(led, response_window=50, processing_window=200, escrow=ETH):
    return ChainTaskParams(
        response_deadline=led.block + response_window,
        processing_deadline=led.block + response_window + processing_window,
        escrow_wei=escrow,
    )


def total_wei(led, funded_total):
    """Global conservation: funded = balances + locked escrow + burned fees."""
    in_accounts = sum(led.balances.values())
    in_escrow = sum(t.escrow_wei for c in led.contracts for t in c.tasks)
    burned = sum(r.fee_wei for r in led.records)
    return in_accounts + in_escrow + burned == funded_total


class TestFees:
    def test_fee_is_exact_integer_wei(self):
        # 1,340,000 gas at 5+1 Gwei is 8.04e15 wei, no rounding involved
        assert FEE.fee_wei(GAS.deploy) == 1_340_000 * 6 * 10**9

    def test_usd_costs_match_published_figures(self):
        # quoted dollar figures for the four measured methods at 5+1 Gwei
        assert abs(FEE.cost_usd(GAS.deploy) - 12.49) < 0.05
        assert abs(FEE.cost_usd(GAS.create_task) - 3.39) < 0.01
        assert abs(FEE.cost_usd(GAS.submit_response) - 3.68) < 0.01
        assert abs(FEE.cost_usd(GAS.submit_auth_calc) - 1.13) < 0.01

    def test_usd_cost_formula(self):
        fee = FeeParams(base_fee_gwei=2.0, tip_gwei=0.5, eth_usd=1000.0)
        assert fee.cost_usd(1_000_000) == pytest.approx(1_000_000 * 2.5 * 1e-9 * 1000.0)

    def test_zero_gas_methods_are_free(self):
        for method in ("VoidTask", "Finalize", "Refund", "Confiscate"):
            assert GAS.for_method(method) == 0


class TestLatencyModel:
    def test_anchor_lookup_is_exact(self):
        m = LatencyModel("rinkeby", random.Random(0))
        assert m.parameters(0.5) == (8.68, 2.0)
        assert m.parameters(1.1) == (2.54, 0.7)
        assert LatencyModel("goerli", random.Random(0)).parameters(1.1) == (3.52, 0.8)

    def test_interpolation_midpoint(self):
        m = LatencyModel("rinkeby", random.Random(0))
        mean, dev = m.parameters(0.75)  # halfway between 0.5 and 1.0 anchors
        assert mean == pytest.approx((8.68 + 3.10) / 2)
        assert dev == pytest.approx((2.0 + 0.9) / 2)

    def test_clamped_outside_anchor_range(self):
        m = LatencyModel("rinkeby", random.Random(0))
        assert m.parameters(0.01) == m.parameters(0.5)
        assert m.parameters(50.0) == m.parameters(10.0)

    def test_draws_are_positive_integers(self):
        m = LatencyModel("goerli", random.Random(3))
        draws = [m.latency(1.1) for _ in range(500)]
        assert all(isinstance(d, int) and d >= 1 for d in draws)

    def test_same_seed_same_sequence(self):
        a = LatencyModel("rinkeby", random.Random(42))
        b = LatencyModel("rinkeby", random.Random(42))
        assert [a.latency(1.1) for _ in range(100)] == [b.latency(1.1) for _ in range(100)]

    @pytest.mark.parametrize(
        "profile,tip,target",
        [("rinkeby", 1.1, 2.54), ("rinkeby", 0.5, 8.68), ("goerli", 1.1, 3.52)],
    )
    def test_mean_tracks_anchor_within_ten_percent(self, profile, tip, target):
        m = LatencyModel(profile, random.Random(2024))
        mean = statistics.fmean(m.latency(tip) for _ in range(4000))
        assert target * 0.9 <= mean <= target * 1.1

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel("mainnet", random.Random(0))
        with pytest.raises(ValueError):
            Ledger(seed=0, profile="mainnet")


class TestTaskLifecycle:
    def setup_task(self, workers=("w1", "w2", "w3"), **params_kw):
        led = funded_ledger(("req", *workers))
        contract = led.deploy("req")
        params = task_params(led, **params_kw)
        task = led.create_task(contract, "req", params)
        return led, contract, task, params

    def test_happy_path_conserves_escrow_and_wei(self):
        led, contract, task, params = self.setup_task()
        for w in ("w1", "w2", "w3"):
            led.submit_response(contract, w, payload=b"resp-" + w.encode())
            led.tick(3)
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"final")
        assert task.phase == PROCESSING
        for w in ("w1", "w2", "w3"):
            led.submit_quality(contract, "req", payload=b"qual-" + w.encode())
            led.worker_payment(contract, "req", w, ETH // 10)
        led.finalize(contract, "req")
        assert task.phase == FINALIZED
        assert task.escrow_wei == 0
        assert task.paid_out_wei == 3 * (ETH // 10)
        assert task.refunded_wei == ETH - 3 * (ETH // 10)
        assert led.escrow_conserved(task)
        assert total_wei(led, 4 * 100 * ETH)
        assert all(v >= 0 for v in led.balances.values())

    def test_worker_balance_arithmetic(self):
        led, contract, task, params = self.setup_task(workers=("w1",))
        rec = led.submit_response(contract, "w1", payload=b"x")
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"final")
        led.worker_payment(contract, "req", "w1", 7 * ETH // 10)
        assert led.balance("w1") == 100 * ETH - rec.fee_wei + 7 * ETH // 10

    def test_requester_balance_arithmetic(self):
        led, contract, task, params = self.setup_task(workers=())
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"final")
        led.finalize(contract, "req")
        fees = sum(r.fee_wei for r in led.records if r.sender == "req")
        # escrow went in at creation and came back whole at finalize
        assert led.balance("req") == 100 * ETH - fees

    def test_finalize_refunds_to_requester(self):
        led, contract, task, params = self.setup_task()
        led.submit_response(contract, "w1", payload=b"x")
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"final")
        led.worker_payment(contract, "req", "w1", ETH // 4)
        before = led.balance("req")
        led.finalize(contract, "req")
        assert led.balance("req") == before + (ETH - ETH // 4)
        refunds = [r for r in led.records if r.method == REFUND]
        assert len(refunds) == 1
        assert refunds[0].beneficiary == "req"
        assert refunds[0].fee_wei == 0
        assert refunds[0].value_wei == -(ETH - ETH // 4)

    def test_two_tasks_in_sequence_on_one_contract(self):
        led, contract, task1, params1 = self.setup_task()
        led.tick_to(params1.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"f1")
        led.finalize(contract, "req")
        assert contract.tasks[-1].phase == FINALIZED
        params2 = task_params(led)
        task2 = led.create_task(contract, "req", params2)
        assert task2.seq == 1
        assert contract.tasks[-1] is task2 and task2.phase == COLLECTING
        assert led.escrow_conserved(task1)


class TestGating:
    def setup_task(self, **kw):
        led = funded_ledger(("req", "w1", "eve"))
        contract = led.deploy("req")
        params = task_params(led, **kw)
        led.create_task(contract, "req", params)
        return led, contract, params

    def test_create_requires_future_deadline(self):
        led = funded_ledger(("req",))
        contract = led.deploy("req")
        led.tick(10)
        with pytest.raises(DeadlineError):
            led.create_task(
                contract,
                "req",
                ChainTaskParams(
                    response_deadline=led.block,
                    processing_deadline=led.block + 10,
                    escrow_wei=0,
                ),
            )

    def test_only_one_active_task(self):
        led, contract, params = self.setup_task()
        with pytest.raises(PhaseError):
            led.create_task(contract, "req", task_params(led))

    def test_response_after_deadline_rejected(self):
        led, contract, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        with pytest.raises(DeadlineError):
            led.submit_response(contract, "w1", payload=b"late")

    def test_response_included_late_is_ignored_but_charged(self):
        led, contract, params = self.setup_task()
        led.tick_to(params.response_deadline)  # submission still legal
        before = led.balance("w1")
        rec = led.submit_response(contract, "w1", payload=b"squeaker")
        # inclusion latency is at least one block, so it lands past the deadline
        assert rec.inclusion_block > params.response_deadline
        task = contract.tasks[-1]
        assert rec not in included_responses(task.responses, params.response_deadline)
        assert rec in led.records
        assert led.balance("w1") == before - rec.fee_wei

    def test_auth_calc_needs_closed_response_window(self):
        led, contract, params = self.setup_task()
        with pytest.raises(DeadlineError):
            led.submit_auth_calc(contract, "req", payload=b"early")

    def test_auth_calc_only_once(self):
        led, contract, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"f")
        with pytest.raises(PhaseError):
            led.submit_auth_calc(contract, "req", payload=b"again")

    def test_auth_calc_respects_processing_deadline(self):
        led, contract, params = self.setup_task()
        led.tick_to(params.processing_deadline + 1)
        with pytest.raises(DeadlineError):
            led.submit_auth_calc(contract, "req", payload=b"too-late")

    def test_refused_final_answer_changes_no_state(self):
        # a late final answer leaves the task collecting, so no payment follows it
        led, contract, params = self.setup_task()
        led.tick_to(params.processing_deadline + 1)
        logged = len(led.records)
        with pytest.raises(DeadlineError):
            led.submit_auth_calc(contract, "req", payload=b"too-late")
        task = contract.tasks[-1]
        assert (task.phase, task.auth_calc, len(led.records)) == (COLLECTING, None, logged)
        with pytest.raises(PhaseError):
            led.worker_payment(contract, "req", "w1", 1)

    def test_quality_and_payment_require_processing_phase(self):
        led, contract, params = self.setup_task()
        with pytest.raises(PhaseError):
            led.submit_quality(contract, "req", payload=b"q")
        with pytest.raises(PhaseError):
            led.worker_payment(contract, "req", "w1", 1)
        with pytest.raises(PhaseError):
            led.finalize(contract, "req")

    def test_requester_only_methods(self):
        led, contract, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        with pytest.raises(PermissionError):
            led.submit_auth_calc(contract, "eve", payload=b"f")
        led.submit_auth_calc(contract, "req", payload=b"f")
        with pytest.raises(PermissionError):
            led.submit_quality(contract, "eve", payload=b"q")
        with pytest.raises(PermissionError):
            led.worker_payment(contract, "eve", "eve", 1)
        with pytest.raises(PermissionError):
            led.finalize(contract, "eve")

    def test_payment_cannot_exceed_escrow(self):
        led, contract, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"f")
        with pytest.raises(FundsError):
            led.worker_payment(contract, "req", "w1", ETH + 1)
        with pytest.raises(ValueError):
            led.worker_payment(contract, "req", "w1", -5)

    def test_sender_must_cover_fee_and_deposit(self):
        led = funded_ledger(("req",))
        contract = led.deploy("req")
        led.create_task(contract, "req", task_params(led))
        led.fund("poor", 100)  # not even one fee
        with pytest.raises(FundsError):
            led.submit_response(contract, "poor", payload=b"x")
        led.fund("broke-req", FEE.fee_wei(GAS.deploy) + FEE.fee_wei(GAS.create_task))
        other = led.deploy("broke-req")
        with pytest.raises(FundsError):
            # fee money alone cannot also cover the escrow deposit
            led.create_task(other, "broke-req", task_params(led, escrow=ETH))

    def test_time_does_not_run_backwards(self):
        led = make_ledger()
        led.tick(5)
        with pytest.raises(ValueError):
            led.tick(-1)
        with pytest.raises(ValueError):
            led.tick_to(3)


class TestVoidAndArbitration:
    def setup_short_task(self):
        led = funded_ledger(("req", "w1", "w2", "w3"))
        contract = led.deploy("req")
        params = task_params(led)
        task = led.create_task(contract, "req", params)
        return led, contract, task, params

    def test_void_reimburses_responder_fees(self):
        led, contract, task, params = self.setup_short_task()
        r1 = led.submit_response(contract, "w1", payload=b"a")
        r2 = led.submit_response(contract, "w2", payload=b"b")
        led.tick_to(params.response_deadline + 1)
        w1_before, w2_before = led.balance("w1"), led.balance("w2")
        req_before = led.balance("req")
        led.void_task(contract, "req")
        assert task.phase == VOID
        assert led.balance("w1") == w1_before + r1.fee_wei
        assert led.balance("w2") == w2_before + r2.fee_wei
        assert led.balance("req") == req_before + (ETH - r1.fee_wei - r2.fee_wei)
        assert task.escrow_wei == 0
        assert led.escrow_conserved(task)
        assert total_wei(led, 4 * 100 * ETH)

    def test_void_needs_closed_window_and_shortfall(self):
        led, contract, task, params = self.setup_short_task()
        r1 = led.submit_response(contract, "w1", payload=b"a")
        with pytest.raises(DeadlineError):
            led.void_task(contract, "req")
        led.tick_to(params.response_deadline + 1)
        # the quorum counts accepted responses, which only screening can
        # tell from rejected ones; the contract leaves it to the log audit
        w1_before = led.balance("w1")
        led.void_task(contract, "req")
        assert task.phase == VOID
        assert led.balance("w1") == w1_before + r1.fee_wei
        assert led.escrow_conserved(task)

    def test_void_refunds_stop_when_the_escrow_runs_out(self):
        led = funded_ledger(("req", "w1", "w2", "w3"))
        contract = led.deploy("req")
        fee = FEE.fee_wei(GAS.submit_response)
        params = task_params(led, escrow=fee + 5)
        task = led.create_task(contract, "req", params)
        for w in ("w1", "w2", "w3"):
            led.submit_response(contract, w, payload=w.encode())
        led.tick_to(params.response_deadline + 1)
        before = {a: led.balance(a) for a in ("req", "w1", "w2", "w3")}
        led.void_task(contract, "req")
        # w1's fee in full, the last 5 wei toward w2's, nothing for w3 or the requester
        refunds = [(r.beneficiary, -r.value_wei) for r in led.records if r.method == REFUND]
        assert refunds == [("w1", fee), ("w2", 5)]
        assert {a: led.balance(a) - before[a] for a in before} == {"req": 0, "w1": fee, "w2": 5, "w3": 0}
        assert task.escrow_wei == 0 and led.escrow_conserved(task)

    def test_void_after_the_final_answer_refused(self):
        # a processing task finalizes or is confiscated; voiding it would
        # refund the escrow its served workers are owed
        led, contract, task, params = self.setup_short_task()
        led.submit_response(contract, "w1", payload=b"a")
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"f")
        led.worker_payment(contract, "req", "w1", ETH // 5)
        logged = len(led.records)
        with pytest.raises(PhaseError):
            led.void_task(contract, "req")
        assert (task.phase, task.escrow_wei, len(led.records)) == (PROCESSING, ETH - ETH // 5, logged)

    def test_void_is_requester_only(self):
        led, contract, task, params = self.setup_short_task()
        led.tick_to(params.response_deadline + 1)
        with pytest.raises(PermissionError):
            led.void_task(contract, "w1")

    def test_confiscation_during_processing(self):
        led, contract, task, params = self.setup_short_task()
        led.submit_response(contract, "w1", payload=b"a")
        led.tick_to(params.response_deadline + 1)
        led.submit_auth_calc(contract, "req", payload=b"f")
        led.worker_payment(contract, "req", "w2", ETH // 5)
        remaining = task.escrow_wei
        w1_before = led.balance("w1")
        rec = led.confiscate(contract, "w1")
        assert rec.method == CONFISCATE
        assert rec.fee_wei == 0
        assert led.balance("w1") == w1_before + remaining
        assert task.phase == FINALIZED
        assert task.confiscated_wei == remaining
        assert led.escrow_conserved(task)
        with pytest.raises(PhaseError):
            led.finalize(contract, "req")

    def test_voided_task_still_accepts_quality_posts(self):
        led, contract, task, params = self.setup_short_task()
        led.submit_response(contract, "w1", payload=b"a")
        led.tick_to(params.response_deadline + 1)
        led.void_task(contract, "req")
        rec = led.submit_quality(contract, "req", payload=b"zero-step")
        assert rec in task.quality_posts
        with pytest.raises(PhaseError):
            led.worker_payment(contract, "req", "w1", 1)
        led.tick_to(params.processing_deadline + 1)
        with pytest.raises(DeadlineError):
            led.submit_quality(contract, "req", payload=b"too-late")

    def test_confiscation_when_requester_ghosts(self):
        led, contract, task, params = self.setup_short_task()
        led.submit_response(contract, "w1", payload=b"a")
        with pytest.raises(PhaseError):
            led.confiscate(contract, "w1")  # window still open
        led.tick_to(params.response_deadline + 1)
        led.confiscate(contract, "w1")
        assert task.phase == FINALIZED
        assert task.confiscated_wei == ETH


class TestLogAndViews:
    def test_record_json_round_trip(self):
        led = funded_ledger(("req", "w1"))
        contract = led.deploy("req")
        params = task_params(led)
        led.create_task(contract, "req", params)
        led.submit_response(contract, "w1", payload=b"\x00\xffpayload")
        for rec in led.records:
            wire = json.dumps(rec.to_json_dict(), sort_keys=True)
            assert LedgerRecord.from_json_dict(json.loads(wire)) == rec

    def test_included_responses_sorted_by_inclusion(self):
        led = funded_ledger(("req", "w1", "w2", "w3", "w4"), seed=11)
        contract = led.deploy("req")
        params = task_params(led, response_window=500)
        task = led.create_task(contract, "req", params)
        for i, w in enumerate(("w1", "w2", "w3", "w4")):
            led.submit_response(contract, w, payload=bytes([i]))
            led.tick(2)
        included = included_responses(task.responses, params.response_deadline)
        keys = [(r.inclusion_block, r.index) for r in included]
        assert keys == sorted(keys)
        assert {r.sender for r in included} == {"w1", "w2", "w3", "w4"}

    def test_gas_by_sender_totals(self):
        led = funded_ledger(("req", "w1"))
        contract = led.deploy("req")
        led.create_task(contract, "req", task_params(led))
        led.submit_response(contract, "w1", payload=b"x")
        totals = gas_by_sender(led.records)
        assert totals["req"] == GAS.deploy + GAS.create_task
        assert totals["w1"] == GAS.submit_response

    def test_identical_seeds_produce_identical_logs(self):
        def run(seed):
            led = funded_ledger(("req", "w1", "w2"), seed=seed)
            contract = led.deploy("req")
            params = task_params(led)
            led.create_task(contract, "req", params)
            led.submit_response(contract, "w1", payload=b"a")
            led.tick(4)
            led.submit_response(contract, "w2", payload=b"b")
            led.tick_to(params.response_deadline + 1)
            led.submit_auth_calc(contract, "req", payload=b"f")
            led.finalize(contract, "req")
            return [r.to_json_dict() for r in led.records]

        assert run(99) == run(99)
        a, b = run(99), run(100)
        assert [r["method"] for r in a] == [r["method"] for r in b]


class TestParamsValidation:
    def test_chain_task_params(self):
        with pytest.raises(ValueError):
            ChainTaskParams(10, 5, 0)
        with pytest.raises(ValueError):
            ChainTaskParams(10, 20, -1)


# ── property sweeps ──────────────────────────────────────────────────────────


@given(
    t1=st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    t2=st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)
@settings(max_examples=150)
def test_latency_mean_monotone_in_tip(t1, t2):
    lo, hi = sorted((t1, t2))
    m = LatencyModel("rinkeby", random.Random(0))
    assert m.parameters(lo)[0] >= m.parameters(hi)[0]


@given(gas=st.integers(min_value=0, max_value=10**8))
@settings(max_examples=100)
def test_fee_wei_consistent_with_usd(gas):
    # the integer-wei fee and the float USD cost describe the same charge
    usd_from_wei = FEE.fee_wei(gas) * 1e-18 * FEE.eth_usd
    assert math.isclose(usd_from_wei, FEE.cost_usd(gas), rel_tol=1e-9, abs_tol=1e-12)
