"""Single-chain ledger simulation: fees, inclusion latency, task contracts.

The chain is a log of transaction records plus an account table, advanced
by explicit ticks. Fees follow the base-fee-plus-tip model: a transaction
costs gas * (base_fee + tip) in Gwei, converted to integer wei for
bookkeeping and to USD only for reporting. Inclusion latency in blocks is
drawn from a seeded truncated-normal model calibrated per network profile
and tip level.

One deployed contract hosts a sequence of escrow-backed tasks. Its rules
are the RULES table (sender and phases per method) and window_problem (the
deadlines): the contract enforces them through one gate, and the log audit
replays them. Everything cryptographic happens in the layers above, which
hand payloads down as opaque bytes.

All money is integer wei (1 Gwei = 10^9 wei). Escrow conservation is exact:
deposit == payments + refunds + confiscation + remainder, always.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DeadlineError, FundsError, PhaseError

WEI_PER_GWEI = 10**9
BLOCK_SECONDS = 15  # reporting convention for simulated wall-clock time

# Transaction methods
DEPLOY = "Deploy"
CREATE_TASK = "CreateTask"
SUBMIT_RESPONSE = "SubmitResponse"
SUBMIT_AUTH_CALC = "SubmitAuthCalc"
SUBMIT_QUALITY = "SubmitQuality"
WORKER_PAYMENT = "WorkerPayment"
VOID_TASK = "VoidTask"
FINALIZE = "Finalize"
REFUND = "Refund"  # contract-emitted transfer record, zero gas
CONFISCATE = "Confiscate"  # arbitration-ordered transfer record, zero gas

# Contract phases
COLLECTING = "Collecting"
PROCESSING = "Processing"
FINALIZED = "Finalized"
VOID = "Void"

# The contract's rules, one row per task method: who may send it (the
# deploying requester, anyone, or the contract itself), the phases of the
# contract's latest task it is legal in (None: no task is open), and the
# phase it leaves that task in (None: the phase it found).
REQUESTER, ANYONE, CONTRACT = "requester", "anyone", "contract"
RULES: dict[str, tuple[str, tuple[str | None, ...], str | None]] = {
    CREATE_TASK: (REQUESTER, (None, FINALIZED, VOID), COLLECTING),
    SUBMIT_RESPONSE: (ANYONE, (COLLECTING,), None),
    SUBMIT_AUTH_CALC: (REQUESTER, (COLLECTING,), PROCESSING),
    SUBMIT_QUALITY: (REQUESTER, (PROCESSING, VOID), None),  # a void task still records its zero steps
    WORKER_PAYMENT: (REQUESTER, (PROCESSING,), None),
    FINALIZE: (REQUESTER, (PROCESSING,), FINALIZED),
    VOID_TASK: (REQUESTER, (COLLECTING,), VOID),
    REFUND: (CONTRACT, (FINALIZED, VOID), None),  # Finalize and VoidTask close the task first
    CONFISCATE: (CONTRACT, (COLLECTING, PROCESSING), FINALIZED),
}


@dataclass(frozen=True)
class GasSchedule:
    """Measured per-call gas for the four benchmarked methods; the last two
    are simulation placeholders (no public figure exists for them)."""

    deploy: int = 1_340_000
    create_task: int = 363_491
    submit_response: int = 394_604
    submit_auth_calc: int = 120_772
    submit_quality: int = 250_000  # placeholder
    worker_payment: int = 60_000  # placeholder

    def for_method(self, method: str) -> int:
        return {
            DEPLOY: self.deploy,
            CREATE_TASK: self.create_task,
            SUBMIT_RESPONSE: self.submit_response,
            SUBMIT_AUTH_CALC: self.submit_auth_calc,
            SUBMIT_QUALITY: self.submit_quality,
            WORKER_PAYMENT: self.worker_payment,
            VOID_TASK: 0,
            FINALIZE: 0,
            REFUND: 0,
            CONFISCATE: 0,
        }[method]


@dataclass(frozen=True)
class FeeParams:
    base_fee_gwei: float = 5.0
    tip_gwei: float = 1.0
    eth_usd: float = 1554.89

    def fee_wei(self, gas: int) -> int:
        return round(gas * (self.base_fee_gwei + self.tip_gwei) * WEI_PER_GWEI)

    def cost_usd(self, gas: int) -> float:
        return gas * (self.base_fee_gwei + self.tip_gwei) * 1e-9 * self.eth_usd


# Latency anchors: tip level -> (mean blocks, deviation). The 1.1-tip rows
# and testnet-a's 0.5-tip row are the externally observed figures; the rest
# interpolate monotonically (gains above tip 1.1 are minimal, under a block).
# Means are post-rounding targets; see LatencyModel.latency.
PROFILES: dict[str, dict[float, tuple[float, float]]] = {
    "rinkeby": {
        0.5: (8.68, 2.0),
        1.0: (3.10, 0.9),
        1.1: (2.54, 0.7),
        1.5: (2.40, 0.7),
        2.0: (2.20, 0.7),
        5.0: (2.00, 0.7),
        10.0: (1.90, 0.7),
    },
    "goerli": {
        0.5: (9.60, 2.2),
        1.0: (4.10, 1.0),
        1.1: (3.52, 0.8),
        1.5: (3.30, 0.8),
        2.0: (3.10, 0.8),
        5.0: (2.90, 0.8),
        10.0: (2.80, 0.8),
    },
}


class LatencyModel:
    """Seeded truncated-normal inclusion latency, interpolated per tip.

    Anchor means are calibrated on the rounded (whole-block) observations,
    so the sampler applies a -0.5 continuity correction before the ceil:
    E[ceil(N(m - 0.5, s))] tracks m to well within the tolerance bands.
    """

    def __init__(self, profile: str, rng: random.Random):
        if profile not in PROFILES:
            raise ValueError(f"unknown network profile {profile!r}")
        self._anchors = sorted(PROFILES[profile].items())
        self._rng = rng

    def parameters(self, tip_gwei: float) -> tuple[float, float]:
        anchors = self._anchors
        if tip_gwei <= anchors[0][0]:
            return anchors[0][1]
        if tip_gwei >= anchors[-1][0]:
            return anchors[-1][1]
        for (lo, (m0, s0)), (hi, (m1, s1)) in zip(anchors, anchors[1:]):
            if lo <= tip_gwei <= hi:
                t = (tip_gwei - lo) / (hi - lo)
                return (m0 + t * (m1 - m0), s0 + t * (s1 - s0))
        raise AssertionError("unreachable")

    def latency(self, tip_gwei: float) -> int:
        mean, dev = self.parameters(tip_gwei)
        draw = self._rng.gauss(mean - 0.5, dev)
        if draw < 0.0:
            draw = 0.0
        return max(1, math.ceil(draw))


# a record as the log carries it: field -> JSON type, payload as hex text
_JSON_FIELDS = {
    "index": int,
    "method": str,
    "sender": str,
    "gas": int,
    "fee_wei": int,
    "tip_gwei": (int, float),
    "submitted_block": int,
    "inclusion_block": int,
    "task_seq": int,
    "payload": str,
    "value_wei": int,
    "beneficiary": str,
}


@dataclass
class LedgerRecord:
    index: int
    method: str
    sender: str
    gas: int
    fee_wei: int
    tip_gwei: float
    submitted_block: int
    inclusion_block: int
    task_seq: int  # which task on the contract, -1 for deploy
    payload: bytes = b""
    value_wei: int = 0  # wei moved into (positive) or out of (negative) escrow
    beneficiary: str = ""  # account credited on outgoing transfers

    def to_json_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in _JSON_FIELDS}, "payload": self.payload.hex()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LedgerRecord":
        """Inverse of to_json_dict; ValueError on a missing or mistyped field."""
        bad = mistyped_field(d, _JSON_FIELDS)
        if bad:
            raise ValueError(f"field {bad!r} is missing or mistyped")
        return cls(**{**{name: d[name] for name in _JSON_FIELDS}, "payload": bytes.fromhex(d["payload"])})


@dataclass(frozen=True)
class ChainTaskParams:
    """The chain-visible slice of a task: gating fields only."""

    response_deadline: int  # block height, inclusive
    processing_deadline: int  # block height, inclusive
    escrow_wei: int

    def __post_init__(self):
        if self.escrow_wei < 0:
            raise ValueError("escrow cannot be negative")
        if self.processing_deadline <= self.response_deadline:
            raise ValueError("processing deadline must come after the response deadline")


@dataclass
class TaskState:
    seq: int
    params: ChainTaskParams
    phase: str = COLLECTING
    escrow_wei: int = 0
    responses: list[LedgerRecord] = field(default_factory=list)  # all submitted, log order
    auth_calc: LedgerRecord | None = None
    quality_posts: list[LedgerRecord] = field(default_factory=list)
    paid_out_wei: int = 0
    refunded_wei: int = 0
    confiscated_wei: int = 0


class TaskContract:
    """One deployed escrow contract hosting sequential tasks."""

    def __init__(self, requester: str):
        self.requester = requester
        self.tasks: list[TaskState] = []


class Ledger:
    """The chain: accounts, transaction log, latency, contract enforcement."""

    def __init__(self, seed: int, profile: str = "rinkeby", fee: FeeParams | None = None):
        self.fee = fee or FeeParams()
        self.gas = GasSchedule()
        self.latency_model = LatencyModel(profile, random.Random(seed))
        self.block = 0
        self.records: list[LedgerRecord] = []
        self.balances: dict[str, int] = {}
        self.contracts: list[TaskContract] = []

    # ── accounts and time ──

    def fund(self, account: str, wei: int) -> None:
        self.balances[account] = self.balances.get(account, 0) + wei

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def tick(self, blocks: int = 1) -> int:
        if blocks < 0:
            raise ValueError("time does not run backwards")
        self.block += blocks
        return self.block

    def tick_to(self, block: int) -> int:
        if block < self.block:
            raise ValueError("time does not run backwards")
        self.block = block
        return self.block

    # ── internals ──

    def _enter(self, contract: TaskContract, method: str, sender: str) -> TaskState | None:
        """The contract's latest task, once RULES and its windows admit method from sender."""
        task = contract.tasks[-1] if contract.tasks else None
        refusal = contract_problem(method, sender, contract.requester, task and task.phase)
        if refusal is None and task is not None:
            refusal = window_problem(method, self.block, task.params.response_deadline, task.params.processing_deadline)
        if refusal is not None:
            raise refusal[0](f"{method}: {refusal[1]}")
        return task

    def _charge(self, sender: str, wei: int) -> None:
        held = self.balances.get(sender, 0)
        if held < wei:
            raise FundsError(f"{sender} cannot cover {wei} wei")
        self.balances[sender] = held - wei

    def _append(
        self,
        method: str,
        sender: str,
        task: TaskState | None,
        payload: bytes = b"",
        value_wei: int = 0,
        beneficiary: str = "",
    ) -> LedgerRecord:
        """Logs a transaction of task (None: a deploy), moves value_wei into its escrow
        (negative: out, to beneficiary) and moves it to the phase the method leaves."""
        if task is not None and -value_wei > task.escrow_wei:
            raise FundsError(f"escrow cannot cover this {method}")
        gas = self.gas.for_method(method)
        fee_wei = self.fee.fee_wei(gas)
        self._charge(sender, fee_wei + max(value_wei, 0))
        rec = LedgerRecord(
            index=len(self.records),
            method=method,
            sender=sender,
            gas=gas,
            fee_wei=fee_wei,
            tip_gwei=self.fee.tip_gwei,
            submitted_block=self.block,
            inclusion_block=self.block + self.latency_model.latency(self.fee.tip_gwei),
            task_seq=-1 if task is None else task.seq,
            payload=payload,
            value_wei=value_wei,
            beneficiary=beneficiary,
        )
        self.records.append(rec)
        if task is not None:
            task.escrow_wei += value_wei
            task.phase = RULES[method][2] or task.phase
        if beneficiary:
            self.fund(beneficiary, -value_wei)
        return rec

    # ── contract methods ──

    def deploy(self, sender: str) -> TaskContract:
        contract = TaskContract(sender)
        self.contracts.append(contract)
        self._append(DEPLOY, sender, None)
        return contract

    def create_task(self, contract: TaskContract, sender: str, params: ChainTaskParams) -> TaskState:
        self._enter(contract, CREATE_TASK, sender)
        if params.response_deadline <= self.block:
            raise DeadlineError("response deadline is not in the future")
        task = TaskState(seq=len(contract.tasks), params=params)
        self._append(CREATE_TASK, sender, task, value_wei=params.escrow_wei)
        contract.tasks.append(task)
        return task

    def submit_response(self, contract: TaskContract, sender: str, payload: bytes) -> LedgerRecord:
        task = self._enter(contract, SUBMIT_RESPONSE, sender)
        rec = self._append(SUBMIT_RESPONSE, sender, task, payload=payload)
        task.responses.append(rec)  # counted only if it lands in time, see included_responses
        return rec

    def submit_auth_calc(self, contract: TaskContract, sender: str, payload: bytes) -> LedgerRecord:
        task = self._enter(contract, SUBMIT_AUTH_CALC, sender)
        task.auth_calc = self._append(SUBMIT_AUTH_CALC, sender, task, payload=payload)
        return task.auth_calc

    def submit_quality(self, contract: TaskContract, sender: str, payload: bytes) -> LedgerRecord:
        task = self._enter(contract, SUBMIT_QUALITY, sender)
        rec = self._append(SUBMIT_QUALITY, sender, task, payload=payload)
        task.quality_posts.append(rec)
        return rec

    def worker_payment(
        self, contract: TaskContract, sender: str, payout_account: str, amount_wei: int
    ) -> LedgerRecord:
        task = self._enter(contract, WORKER_PAYMENT, sender)
        if amount_wei < 0:
            raise ValueError("payments cannot be negative")
        rec = self._append(WORKER_PAYMENT, sender, task, value_wei=-amount_wei, beneficiary=payout_account)
        task.paid_out_wei += amount_wei
        return rec

    def finalize(self, contract: TaskContract, sender: str) -> LedgerRecord:
        """Close the task and refund the unspent escrow to the requester."""
        task = self._enter(contract, FINALIZE, sender)
        rec = self._append(FINALIZE, sender, task)
        if task.escrow_wei:
            self._refund(task, contract.requester, task.escrow_wei)
        return rec

    def void_task(self, contract: TaskContract, sender: str) -> LedgerRecord:
        """Void an under-subscribed task: reimburse every included
        responder's transaction fee from escrow, return the rest to the
        requester.

        The contract holds payloads as opaque bytes, so it cannot tell an
        accepted response from a rejected one and leaves the quorum to the
        requester; the log audit replays screening and judges it."""
        task = self._enter(contract, VOID_TASK, sender)
        rec = self._append(VOID_TASK, sender, task)
        included = included_responses(task.responses, task.params.response_deadline)
        for beneficiary, amount in void_refunds(included, task.escrow_wei, contract.requester):
            self._refund(task, beneficiary, amount)
        return rec

    def confiscate(self, contract: TaskContract, arbiter_beneficiary: str) -> LedgerRecord:
        """Arbitration outcome: the remaining escrow of the most recent task
        goes to the wronged party, and the task is closed against further
        requester moves. Valid while processing is underway, or when the
        requester went silent after the response window."""
        task = self._enter(contract, CONFISCATE, CONTRACT)
        amount = task.escrow_wei
        rec = self._append(CONFISCATE, CONTRACT, task, value_wei=-amount, beneficiary=arbiter_beneficiary)
        task.confiscated_wei += amount
        return rec

    def _refund(self, task: TaskState, beneficiary: str, amount: int) -> None:
        self._append(REFUND, CONTRACT, task, value_wei=-amount, beneficiary=beneficiary)
        task.refunded_wei += amount

    # ── reporting helpers ──

    def escrow_conserved(self, task: TaskState) -> bool:
        spent = task.paid_out_wei + task.refunded_wei + task.confiscated_wei
        return task.params.escrow_wei == spent + task.escrow_wei


# ── rules the contract and the log audit share ──


def included_responses(records: Iterable[LedgerRecord], response_deadline: int) -> list[LedgerRecord]:
    """The responses a task counts: those that landed by its response
    deadline, in inclusion order (block, then log index). One that lands
    later is ignored, its fee already spent."""
    landed = (r for r in records if r.method == SUBMIT_RESPONSE and r.inclusion_block <= response_deadline)
    return sorted(landed, key=lambda r: (r.inclusion_block, r.index))


def contract_problem(method: str, sender: str, requester: str, phase: str | None) -> tuple[type, str] | None:
    """Why the contract refuses method from sender while its latest task is in
    phase (None: no task is open), as (error class, reason) by RULES, or None."""
    if method not in RULES:
        return PhaseError, "not a method of a task"
    who, phases, _ = RULES[method]
    if who != ANYONE and sender != (requester if who == REQUESTER else who):
        return PermissionError, f"only the {who} may send it"
    if phase not in phases:
        return PhaseError, f"not legal in phase {phase}" if phase else "not legal while no task is open"
    return None


def window_problem(
    method: str, block: int, response_deadline: int, processing_deadline: int
) -> tuple[type, str] | None:
    """Why a task's transaction of this method submitted at this block falls
    outside its deadline windows, as (error class, reason), or None.
    Responses close with the response window; the final answer and a void
    need that window closed, and so does confiscating from a task that is
    still collecting (a phase refusal: the task has not failed to process
    yet); the final answer and quality posts close with the processing window."""
    if method == SUBMIT_RESPONSE and block > response_deadline:
        return DeadlineError, "response window has closed"
    if method in (SUBMIT_AUTH_CALC, VOID_TASK, CONFISCATE) and block <= response_deadline:
        return (PhaseError if method == CONFISCATE else DeadlineError), "response window is still open"
    if method in (SUBMIT_AUTH_CALC, SUBMIT_QUALITY) and block > processing_deadline:
        return DeadlineError, "processing window has closed"
    return None


def void_refunds(included: Iterable[LedgerRecord], escrow_wei: int, requester: str) -> list[tuple[str, int]]:
    """The (beneficiary, wei) refunds that void a task, in order: each included
    responder's fee in log order while the escrow lasts (the escrow's last wei
    may cover a fee in part), then any escrow left to the requester."""
    refunds, left = [], escrow_wei
    for r in sorted(included, key=lambda r: r.index):
        if left == 0 < r.fee_wei:
            break
        amount = min(r.fee_wei, left)
        refunds.append((r.sender, amount))
        left -= amount
    if left > 0:
        refunds.append((requester, left))
    return refunds


def mistyped_field(d: dict, fields: dict) -> str | None:
    """The first of fields (name -> JSON type) that d lacks or holds with another type."""
    return next((name for name, kind in fields.items() if not isinstance(d.get(name), kind)), None)


def gas_by_sender(records: Iterable[LedgerRecord]) -> dict[str, int]:
    """Gas spent per sending account over a transaction log."""
    out: dict[str, int] = {}
    for r in records:
        out[r.sender] = out.get(r.sender, 0) + r.gas
    return out
