"""Chain simulation: fees, latency calibration, phases, escrow movement."""

import json
import math
import random
import statistics
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd.encoding import from_json, to_json
from anoncrowd.errors import DeadlineError, FundsError, PhaseError
from anoncrowd.ledger import (
    COLLECTING,
    CONFISCATE,
    CONTRACT,
    CREATE_TASK,
    DEPLOY,
    FINALIZE,
    FINALIZED,
    PROCESSING,
    REFUND,
    RULES,
    SUBMIT_AUTH_CALC,
    SUBMIT_QUALITY,
    SUBMIT_RESPONSE,
    VOID,
    VOID_TASK,
    WORKER_PAYMENT,
    ChainTaskParams,
    FeeParams,
    GasSchedule,
    LatencyModel,
    Ledger,
    LedgerRecord,
    chain_summary,
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


def open_task(led, sender, params):
    """Sends the CreateTask that opens params' task; returns the task."""
    led.send(CREATE_TASK, sender, value_wei=params.escrow_wei, params=params)
    return led.contract.tasks[-1]


def pay(led, sender, worker, wei):
    return led.send(WORKER_PAYMENT, sender, value_wei=-wei, beneficiary=worker)


def task_params(led, response_window=50, processing_window=200, escrow=ETH):
    return ChainTaskParams(
        response_deadline=led.block + response_window,
        processing_deadline=led.block + response_window + processing_window,
        escrow_wei=escrow,
    )


def total_wei(led, funded_total):
    """Global conservation: funded = balances + locked escrow + burned fees."""
    in_accounts = sum(led.balances.values())
    in_escrow = sum(t.escrow_wei for t in led.contract.tasks)
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

    def test_every_method_has_rules_and_a_gas_figure(self):
        # one row per method, whose gas field (if any) is a schedule figure
        methods = {DEPLOY, CREATE_TASK, SUBMIT_RESPONSE, SUBMIT_AUTH_CALC, SUBMIT_QUALITY}
        methods |= {WORKER_PAYMENT, VOID_TASK, FINALIZE, REFUND, CONFISCATE}
        assert set(RULES) == methods
        assert {row[3] for row in RULES.values() if row[3]} <= {f.name for f in fields(GasSchedule)}


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
        led.send(DEPLOY, "req")
        params = task_params(led, **params_kw)
        task = open_task(led, "req", params)
        return led, task, params

    def test_happy_path_conserves_escrow_and_wei(self):
        led, task, params = self.setup_task()
        for w in ("w1", "w2", "w3"):
            led.send(SUBMIT_RESPONSE, w, payload=b"resp-" + w.encode())
            led.tick(3)
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"final")
        assert task.phase == PROCESSING
        for w in ("w1", "w2", "w3"):
            led.send(SUBMIT_QUALITY, "req", payload=b"qual-" + w.encode())
            pay(led, "req", w, ETH // 10)
        led.send(FINALIZE, "req")
        assert task.phase == FINALIZED
        assert task.escrow_wei == 0
        assert task.paid_out_wei == 3 * (ETH // 10)
        assert task.refunded_wei == ETH - 3 * (ETH // 10)
        assert task.escrow_conserved()
        assert total_wei(led, 4 * 100 * ETH)
        assert all(v >= 0 for v in led.balances.values())

    def test_worker_balance_arithmetic(self):
        led, task, params = self.setup_task(workers=("w1",))
        rec = led.send(SUBMIT_RESPONSE, "w1", payload=b"x")
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"final")
        pay(led, "req", "w1", 7 * ETH // 10)
        assert led.balance("w1") == 100 * ETH - rec.fee_wei + 7 * ETH // 10

    def test_requester_balance_arithmetic(self):
        led, task, params = self.setup_task(workers=())
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"final")
        led.send(FINALIZE, "req")
        fees = sum(r.fee_wei for r in led.records if r.sender == "req")
        # escrow went in at creation and came back whole at finalize
        assert led.balance("req") == 100 * ETH - fees

    def test_finalize_refunds_to_requester(self):
        led, task, params = self.setup_task()
        led.send(SUBMIT_RESPONSE, "w1", payload=b"x")
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"final")
        pay(led, "req", "w1", ETH // 4)
        before = led.balance("req")
        led.send(FINALIZE, "req")
        assert led.balance("req") == before + (ETH - ETH // 4)
        refunds = [r for r in led.records if r.method == REFUND]
        assert len(refunds) == 1
        assert refunds[0].beneficiary == "req"
        assert refunds[0].fee_wei == 0
        assert refunds[0].value_wei == -(ETH - ETH // 4)

    def test_two_tasks_in_sequence_on_one_contract(self):
        led, task1, params1 = self.setup_task()
        led.tick_to(params1.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"f1")
        led.send(FINALIZE, "req")
        assert led.contract.tasks[-1].phase == FINALIZED
        params2 = task_params(led)
        task2 = open_task(led, "req", params2)
        assert task2.seq == 1
        assert led.contract.tasks[-1] is task2 and task2.phase == COLLECTING
        assert task1.escrow_conserved()


class TestGating:
    def setup_task(self, **kw):
        led = funded_ledger(("req", "w1", "eve"))
        led.send(DEPLOY, "req")
        params = task_params(led, **kw)
        open_task(led, "req", params)
        return led, params

    def test_create_requires_future_deadline(self):
        led = funded_ledger(("req",))
        led.send(DEPLOY, "req")
        led.tick(10)
        with pytest.raises(DeadlineError):
            open_task(led, "req", ChainTaskParams(led.block, led.block + 10, 0))

    def test_only_one_active_task(self):
        led, params = self.setup_task()
        with pytest.raises(PhaseError):
            open_task(led, "req", task_params(led))

    def test_response_after_deadline_rejected(self):
        led, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        with pytest.raises(DeadlineError):
            led.send(SUBMIT_RESPONSE, "w1", payload=b"late")

    def test_response_included_late_is_ignored_but_charged(self):
        led, params = self.setup_task()
        led.tick_to(params.response_deadline)  # submission still legal
        before = led.balance("w1")
        rec = led.send(SUBMIT_RESPONSE, "w1", payload=b"squeaker")
        # inclusion latency is at least one block, so it lands past the deadline
        assert rec.inclusion_block > params.response_deadline
        task = led.contract.tasks[-1]
        assert rec not in task.included_responses()
        assert rec in led.records
        assert led.balance("w1") == before - rec.fee_wei

    def test_auth_calc_needs_closed_response_window(self):
        led, params = self.setup_task()
        with pytest.raises(DeadlineError):
            led.send(SUBMIT_AUTH_CALC, "req", payload=b"early")

    def test_auth_calc_only_once(self):
        led, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
        with pytest.raises(PhaseError):
            led.send(SUBMIT_AUTH_CALC, "req", payload=b"again")

    def test_auth_calc_respects_processing_deadline(self):
        led, params = self.setup_task()
        led.tick_to(params.processing_deadline + 1)
        with pytest.raises(DeadlineError):
            led.send(SUBMIT_AUTH_CALC, "req", payload=b"too-late")

    def test_refused_final_answer_changes_no_state(self):
        # a late final answer leaves the task collecting, so no payment follows it
        led, params = self.setup_task()
        led.tick_to(params.processing_deadline + 1)
        logged = len(led.records)
        with pytest.raises(DeadlineError):
            led.send(SUBMIT_AUTH_CALC, "req", payload=b"too-late")
        task = led.contract.tasks[-1]
        assert (task.phase, len(led.records)) == (COLLECTING, logged)
        with pytest.raises(PhaseError):
            pay(led, "req", "w1", 1)

    def test_quality_and_payment_require_processing_phase(self):
        led, params = self.setup_task()
        with pytest.raises(PhaseError):
            led.send(SUBMIT_QUALITY, "req", payload=b"q")
        with pytest.raises(PhaseError):
            pay(led, "req", "w1", 1)
        with pytest.raises(PhaseError):
            led.send(FINALIZE, "req")

    def test_requester_only_methods(self):
        led, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        with pytest.raises(PermissionError):
            led.send(SUBMIT_AUTH_CALC, "eve", payload=b"f")
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
        with pytest.raises(PermissionError):
            led.send(SUBMIT_QUALITY, "eve", payload=b"q")
        with pytest.raises(PermissionError):
            pay(led, "eve", "eve", 1)
        with pytest.raises(PermissionError):
            led.send(FINALIZE, "eve")

    def test_payment_cannot_exceed_escrow(self):
        led, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
        with pytest.raises(FundsError):
            pay(led, "req", "w1", ETH + 1)
        with pytest.raises(ValueError):
            pay(led, "req", "w1", -5)

    def test_sender_must_cover_fee_and_deposit(self):
        led = funded_ledger(("req",))
        led.send(DEPLOY, "req")
        open_task(led, "req", task_params(led))
        led.fund("poor", 100)  # not even one fee
        with pytest.raises(FundsError):
            led.send(SUBMIT_RESPONSE, "poor", payload=b"x")
        led = make_ledger()  # one contract per ledger: the poor requester deploys its own
        led.fund("broke-req", FEE.fee_wei(GAS.deploy) + FEE.fee_wei(GAS.create_task))
        led.send(DEPLOY, "broke-req")
        with pytest.raises(FundsError):
            # fee money alone cannot also cover the escrow deposit
            open_task(led, "broke-req", task_params(led, escrow=ETH))

    def test_refused_deploy_leaves_the_ledger_untouched(self):
        led = funded_ledger(("req",))
        led.fund("poor", FEE.fee_wei(GAS.deploy) - 1)
        balances = dict(led.balances)
        with pytest.raises(FundsError):
            led.send(DEPLOY, "poor")
        assert (led.records, led.contract.requester, led.balances) == ([], None, balances)
        led.send(DEPLOY, "req")  # the contract is still free to deploy
        assert led.contract.requester == "req" and len(led.records) == 1

    def test_second_deploy_is_refused(self):
        # one contract, one requester: a second Deploy, from its requester or
        # anyone else, is refused before any fee is charged
        led = funded_ledger(("req", "eve"))
        led.send(DEPLOY, "req")

        def state():
            contract = (led.contract.requester, list(led.contract.tasks))
            return [to_json(r) for r in led.records], dict(led.balances), contract

        before = state()
        for sender in ("req", "eve"):
            with pytest.raises(PhaseError, match="^Deploy: the contract is already deployed$"):
                led.send(DEPLOY, sender)
            assert state() == before
        assert before[2] == ("req", []) and len(before[0]) == 1

    @pytest.mark.parametrize(
        "method, calls_before",
        [
            (DEPLOY, 0),
            (CREATE_TASK, 1),
            (SUBMIT_RESPONSE, 2),
            (SUBMIT_AUTH_CALC, 3),
            (VOID_TASK, 3),
            (SUBMIT_QUALITY, 4),
            (FINALIZE, 4),
        ],
    )
    def test_beneficiary_on_a_method_that_pays_no_one_is_refused(self, method, calls_before):
        led = funded_ledger(("req", "w1"))
        params = task_params(led)
        calls = [
            lambda: led.send(DEPLOY, "req"),
            lambda: open_task(led, "req", params),
            lambda: led.tick_to(params.response_deadline + 1),
            lambda: led.send(SUBMIT_AUTH_CALC, "req", payload=b"f"),
        ]
        for call in calls[:calls_before]:
            call()
        sender = "w1" if method == SUBMIT_RESPONSE else "req"
        kw = {"value_wei": params.escrow_wei, "params": params} if method == CREATE_TASK else {}
        logged = len(led.records)
        with pytest.raises(ValueError, match=f"^{method}: pays no one, yet names w1 its beneficiary$"):
            led.send(method, sender, beneficiary="w1", **kw)
        assert len(led.records) == logged
        led.send(method, sender, **kw)  # the same call without the beneficiary goes through

    @pytest.mark.parametrize("method", [WORKER_PAYMENT, CONFISCATE])
    def test_paying_method_without_a_beneficiary_is_refused(self, method):
        # the wei it moves out of escrow would reach no account and leave the chain
        led, params = self.setup_task()
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
        sender, wei = (CONTRACT, ETH) if method == CONFISCATE else ("req", ETH // 1000)
        before = len(led.records), dict(led.balances), led.contract.tasks[-1].escrow_wei
        with pytest.raises(ValueError, match=f"^{method}: names no beneficiary to pay$"):
            led.send(method, sender, value_wei=-wei)
        assert (len(led.records), dict(led.balances), led.contract.tasks[-1].escrow_wei) == before
        led.send(method, sender, value_wei=-wei, beneficiary="w1")
        assert total_wei(led, 3 * 100 * ETH)

    def test_refused_calls_leave_the_ledger_untouched(self):
        # a twin on the same seed never sees the refused calls; afterwards both
        # log the same records, inclusion blocks (the latency draws) included
        def state(led):
            tasks = [
                (t.phase, t.escrow_wei, t.paid_out_wei, t.refunded_wei, t.owed, len(t.records))
                for t in led.contract.tasks
            ]
            return [to_json(r) for r in led.records], dict(led.balances), tasks, led.block

        def refuse_all(led, calls):
            before = state(led)
            for error, call in calls:
                with pytest.raises(error):
                    call(led)
                assert state(led) == before

        collecting = [
            (FundsError, lambda led: led.send(SUBMIT_RESPONSE, "poor", payload=b"x")),  # cannot cover the fee
            (DeadlineError, lambda led: led.send(SUBMIT_AUTH_CALC, "req", payload=b"early")),
            (PhaseError, lambda led: open_task(led, "req", task_params(led))),
        ]
        processing = [
            (PhaseError, lambda led: led.send(SUBMIT_RESPONSE, "w1", payload=b"late")),
            (FundsError, lambda led: pay(led, "req", "w1", ETH + 1)),  # escrow cannot cover it
            (PermissionError, lambda led: led.send(FINALIZE, "eve")),
            (PhaseError, lambda led: led.send(VOID_TASK, "req")),
            # a confiscation takes the whole escrow, not a part of it
            (FundsError, lambda led: led.send(CONFISCATE, CONTRACT, value_wei=-(ETH // 2), beneficiary="w1")),
        ]
        closed = [  # the next task's figures do not hold
            (ValueError, lambda led: open_task(led, "req", task_params(led, processing_window=-5))),
            (ValueError, lambda led: open_task(led, "req", task_params(led, escrow=-1))),
        ]
        ledgers = []
        for refused in (True, False):
            led, params = self.setup_task()
            led.fund("poor", 100)
            refuse_all(led, collecting if refused else [])
            led.send(SUBMIT_RESPONSE, "w1", payload=b"x")
            led.tick_to(params.response_deadline + 1)
            led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
            refuse_all(led, processing if refused else [])
            pay(led, "req", "w1", ETH // 4)
            led.send(FINALIZE, "req")
            refuse_all(led, closed if refused else [])
            ledgers.append(led)
        assert state(ledgers[0]) == state(ledgers[1])

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
        led.send(DEPLOY, "req")
        params = task_params(led)
        task = open_task(led, "req", params)
        return led, task, params

    def test_void_reimburses_responder_fees(self):
        led, task, params = self.setup_short_task()
        r1 = led.send(SUBMIT_RESPONSE, "w1", payload=b"a")
        r2 = led.send(SUBMIT_RESPONSE, "w2", payload=b"b")
        led.tick_to(params.response_deadline + 1)
        w1_before, w2_before = led.balance("w1"), led.balance("w2")
        req_before = led.balance("req")
        led.send(VOID_TASK, "req")
        assert task.phase == VOID
        assert led.balance("w1") == w1_before + r1.fee_wei
        assert led.balance("w2") == w2_before + r2.fee_wei
        assert led.balance("req") == req_before + (ETH - r1.fee_wei - r2.fee_wei)
        assert task.escrow_wei == 0
        assert task.escrow_conserved()
        assert total_wei(led, 4 * 100 * ETH)

    def test_void_needs_closed_window_and_shortfall(self):
        led, task, params = self.setup_short_task()
        r1 = led.send(SUBMIT_RESPONSE, "w1", payload=b"a")
        with pytest.raises(DeadlineError):
            led.send(VOID_TASK, "req")
        led.tick_to(params.response_deadline + 1)
        # the quorum counts accepted responses, which only screening can
        # tell from rejected ones; the contract leaves it to the log audit
        w1_before = led.balance("w1")
        led.send(VOID_TASK, "req")
        assert task.phase == VOID
        assert led.balance("w1") == w1_before + r1.fee_wei
        assert task.escrow_conserved()

    def test_void_refunds_stop_when_the_escrow_runs_out(self):
        led = funded_ledger(("req", "w1", "w2", "w3"))
        led.send(DEPLOY, "req")
        fee = FEE.fee_wei(GAS.submit_response)
        params = task_params(led, escrow=fee + 5)
        task = open_task(led, "req", params)
        for w in ("w1", "w2", "w3"):
            led.send(SUBMIT_RESPONSE, w, payload=w.encode())
        led.tick_to(params.response_deadline + 1)
        before = {a: led.balance(a) for a in ("req", "w1", "w2", "w3")}
        led.send(VOID_TASK, "req")
        # w1's fee in full, the last 5 wei toward w2's, nothing for w3 or the requester
        refunds = [(r.beneficiary, -r.value_wei) for r in led.records if r.method == REFUND]
        assert refunds == [("w1", fee), ("w2", 5)]
        assert {a: led.balance(a) - before[a] for a in before} == {"req": 0, "w1": fee, "w2": 5, "w3": 0}
        assert task.escrow_wei == 0 and task.escrow_conserved()

    def test_void_after_the_final_answer_refused(self):
        # a processing task finalizes or is confiscated; voiding it would
        # refund the escrow its served workers are owed
        led, task, params = self.setup_short_task()
        led.send(SUBMIT_RESPONSE, "w1", payload=b"a")
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
        pay(led, "req", "w1", ETH // 5)
        logged = len(led.records)
        with pytest.raises(PhaseError):
            led.send(VOID_TASK, "req")
        assert (task.phase, task.escrow_wei, len(led.records)) == (PROCESSING, ETH - ETH // 5, logged)

    def test_void_is_requester_only(self):
        led, task, params = self.setup_short_task()
        led.tick_to(params.response_deadline + 1)
        with pytest.raises(PermissionError):
            led.send(VOID_TASK, "w1")

    def test_confiscation_during_processing(self):
        led, task, params = self.setup_short_task()
        led.send(SUBMIT_RESPONSE, "w1", payload=b"a")
        led.tick_to(params.response_deadline + 1)
        led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
        pay(led, "req", "w2", ETH // 5)
        remaining = task.escrow_wei
        w1_before = led.balance("w1")
        rec = led.send(CONFISCATE, CONTRACT, value_wei=-remaining, beneficiary="w1")
        assert rec.method == CONFISCATE
        assert rec.fee_wei == 0
        assert led.balance("w1") == w1_before + remaining
        assert task.phase == FINALIZED
        assert task.confiscated_wei == remaining
        assert task.escrow_conserved()
        with pytest.raises(PhaseError):
            led.send(FINALIZE, "req")

    def test_voided_task_still_accepts_quality_posts(self):
        led, task, params = self.setup_short_task()
        led.send(SUBMIT_RESPONSE, "w1", payload=b"a")
        led.tick_to(params.response_deadline + 1)
        led.send(VOID_TASK, "req")
        rec = led.send(SUBMIT_QUALITY, "req", payload=b"zero-step")
        assert rec in task.sent(SUBMIT_QUALITY)
        with pytest.raises(PhaseError):
            pay(led, "req", "w1", 1)
        led.tick_to(params.processing_deadline + 1)
        with pytest.raises(DeadlineError):
            led.send(SUBMIT_QUALITY, "req", payload=b"too-late")

    def test_confiscation_when_requester_ghosts(self):
        led, task, params = self.setup_short_task()
        led.send(SUBMIT_RESPONSE, "w1", payload=b"a")
        with pytest.raises(PhaseError):
            led.send(CONFISCATE, CONTRACT, value_wei=-ETH, beneficiary="w1")  # window still open
        led.tick_to(params.response_deadline + 1)
        led.send(CONFISCATE, CONTRACT, value_wei=-ETH, beneficiary="w1")
        assert task.phase == FINALIZED
        assert task.confiscated_wei == ETH


class TestLogAndViews:
    def test_record_json_round_trip(self):
        led = funded_ledger(("req", "w1"))
        led.send(DEPLOY, "req")
        params = task_params(led)
        open_task(led, "req", params)
        led.send(SUBMIT_RESPONSE, "w1", payload=b"\x00\xffpayload")
        for rec in led.records:
            wire = json.dumps(to_json(rec), sort_keys=True)
            assert from_json(LedgerRecord, json.loads(wire)) == rec

    def test_included_responses_sorted_by_inclusion(self):
        led = funded_ledger(("req", "w1", "w2", "w3", "w4"), seed=11)
        led.send(DEPLOY, "req")
        params = task_params(led, response_window=500)
        task = open_task(led, "req", params)
        for i, w in enumerate(("w1", "w2", "w3", "w4")):
            led.send(SUBMIT_RESPONSE, w, payload=bytes([i]))
            led.tick(2)
        included = task.included_responses()
        keys = [(r.inclusion_block, r.index) for r in included]
        assert keys == sorted(keys)
        assert {r.sender for r in included} == {"w1", "w2", "w3", "w4"}

    def test_gas_by_sender_totals(self):
        led = funded_ledger(("req", "w1"))
        led.send(DEPLOY, "req")
        open_task(led, "req", task_params(led))
        led.send(SUBMIT_RESPONSE, "w1", payload=b"x")
        totals = chain_summary(led.records, led.contract.tasks)["gas_by_sender"]
        assert totals["req"] == GAS.deploy + GAS.create_task
        assert totals["w1"] == GAS.submit_response

    def test_identical_seeds_produce_identical_logs(self):
        def run(seed):
            led = funded_ledger(("req", "w1", "w2"), seed=seed)
            led.send(DEPLOY, "req")
            params = task_params(led)
            open_task(led, "req", params)
            led.send(SUBMIT_RESPONSE, "w1", payload=b"a")
            led.tick(4)
            led.send(SUBMIT_RESPONSE, "w2", payload=b"b")
            led.tick_to(params.response_deadline + 1)
            led.send(SUBMIT_AUTH_CALC, "req", payload=b"f")
            led.send(FINALIZE, "req")
            return [to_json(r) for r in led.records]

        assert run(99) == run(99)
        a, b = run(99), run(100)
        assert [r["method"] for r in a] == [r["method"] for r in b]


class TestParamsValidation:
    def test_chain_task_params(self):
        # the contract, not the record, judges a task's figures when it opens
        led = funded_ledger(("req",))
        led.send(DEPLOY, "req")
        with pytest.raises(ValueError):
            open_task(led, "req", ChainTaskParams(led.block + 10, led.block + 5, 0))
        with pytest.raises(ValueError, match="escrow of -1 wei is negative"):
            open_task(led, "req", ChainTaskParams(led.block + 10, led.block + 20, -1))
        assert led.contract.tasks == []


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
