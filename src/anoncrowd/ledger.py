"""Single-chain ledger simulation: the chain, and the task contract it hosts.

The chain (Ledger) is a log of transaction records plus an account table,
advanced by explicit ticks. Fees follow the base-fee-plus-tip model: a
transaction costs gas * (base_fee + tip) in Gwei, converted to integer wei
for bookkeeping and to USD only for reporting. Inclusion latency in blocks
is drawn from a seeded truncated-normal model calibrated per network
profile and tip level.

Each ledger hosts one contract (TaskContract), which runs a sequence of
escrow-backed tasks, and Ledger.send is the one way onto the chain for
every method, Deploy included. RULES gives each method one row: its
sender, its legal phases, the phase it leaves and its gas. The transition
(check, then move) judges every figure a transaction carries, a task's
parameters and a confiscation's amount included: send runs it on each
record it builds, and the log audit re-runs it on each logged record, as
a full node re-executes a block. The contract keeps the chain's facts: its
one Deploy names the requester, and each TaskState holds every record applied
to its task and the task's escrow totals, which chain_summary sums.
Everything cryptographic happens in the layers above, which hand payloads
down as opaque bytes; the log's JSON form of a record is encoding.to_json's.

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

# The contract's rules, one row per method: who may send it (the requester
# the Deploy named, anyone, or the contract itself), the phases of the
# contract's latest task it is legal in (None: no task is open), the phase it leaves
# that task in (None: the phase it found), and the GasSchedule field its gas
# is read from (None: it costs none).
REQUESTER, ANYONE, CONTRACT = "requester", "anyone", "contract"
RULES: dict[str, tuple[str, tuple[str | None, ...], str | None, str | None]] = {
    DEPLOY: (ANYONE, (None,), None, "deploy"),  # once: its sender becomes the requester
    CREATE_TASK: (REQUESTER, (None, FINALIZED, VOID), COLLECTING, "create_task"),
    SUBMIT_RESPONSE: (ANYONE, (COLLECTING,), None, "submit_response"),
    SUBMIT_AUTH_CALC: (REQUESTER, (COLLECTING,), PROCESSING, "submit_auth_calc"),
    SUBMIT_QUALITY: (REQUESTER, (PROCESSING, VOID), None, "submit_quality"),  # a void task still records its zero steps
    WORKER_PAYMENT: (REQUESTER, (PROCESSING,), None, "worker_payment"),
    FINALIZE: (REQUESTER, (PROCESSING,), FINALIZED, None),  # the unspent escrow goes back to the requester
    # a void reimburses its included responders' fees first; the contract holds payloads
    # as opaque bytes, so it cannot judge the quorum and leaves it to the log audit
    VOID_TASK: (REQUESTER, (COLLECTING,), VOID, None),
    REFUND: (CONTRACT, (FINALIZED, VOID), None, None),  # Finalize and VoidTask close the task first
    # an upheld protest, or a requester silent after the response window: the whole escrow
    # goes to the wronged party, and the task is closed against further requester moves
    CONFISCATE: (CONTRACT, (COLLECTING, PROCESSING), FINALIZED, None),
}
PAYING = (WORKER_PAYMENT, REFUND, CONFISCATE)  # the methods that move escrow out, to a beneficiary


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
        name = RULES[method][3]
        return getattr(self, name) if name else 0


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
    task_seq: int  # which task on the contract, -1 for the deploy
    payload: bytes = b""
    value_wei: int = 0  # wei moved into (positive) or out of (negative) escrow
    beneficiary: str = ""  # account credited on outgoing transfers


@dataclass(frozen=True)
class ChainTaskParams:
    """The chain-visible slice of a task: gating fields only, as plain data
    that TaskContract.check judges when a CreateTask opens the task."""

    response_deadline: int  # block height, inclusive
    processing_deadline: int  # block height, inclusive
    escrow_wei: int


@dataclass
class TaskState:
    seq: int
    params: ChainTaskParams
    phase: str = COLLECTING
    escrow_wei: int = 0
    records: list[LedgerRecord] = field(default_factory=list)  # every record applied to the task, log order
    paid_out_wei: int = 0
    refunded_wei: int = 0
    confiscated_wei: int = 0
    owed: list[tuple[str, int]] = field(default_factory=list)  # (beneficiary, wei) refunds its close left, head first

    def sent(self, method: str) -> list[LedgerRecord]:
        """The task's records of one method, in log order."""
        return [r for r in self.records if r.method == method]

    def included_responses(self) -> list[LedgerRecord]:
        """The responses the task counts: those that landed by its response
        deadline, in inclusion order (block, then log index). One that lands
        later is ignored, its fee already spent."""
        landed = (r for r in self.sent(SUBMIT_RESPONSE) if r.inclusion_block <= self.params.response_deadline)
        return sorted(landed, key=lambda r: (r.inclusion_block, r.index))

    def escrow_conserved(self) -> bool:
        spent = self.paid_out_wei + self.refunded_wei + self.confiscated_wei
        return self.params.escrow_wei == spent + self.escrow_wei


class TaskContract:
    """One escrow contract hosting sequential tasks; its one Deploy makes the
    sender its requester, and every later method but CreateTask acts on the
    latest task."""

    gas = GasSchedule()

    def __init__(self, fee: FeeParams):
        self.requester: str | None = None  # set by the Deploy
        self.fee = fee
        self.tasks: list[TaskState] = []

    def check(self, rec: LedgerRecord, params: ChainTaskParams | None = None) -> tuple[type, str] | None:
        """Why the contract refuses rec, as (error class, reason), or None; params: the task a CreateTask opens."""
        method = rec.method
        task = self.tasks[-1] if self.tasks else None
        if method not in RULES:
            return PhaseError, "not a method of the contract"
        who, phases, _, _ = RULES[method]
        if (method == DEPLOY) != (self.requester is None):
            return PhaseError, "no contract is deployed" if self.requester is None else "the contract is already deployed"
        if who != ANYONE and rec.sender != (self.requester if who == REQUESTER else who):
            return PermissionError, f"only the {who} may send it"
        phase = task and task.phase
        if phase not in phases:
            return PhaseError, f"not legal in phase {phase}" if phase else "not legal while no task is open"
        if method == CREATE_TASK:
            if params is None:
                return ValueError, "its task has no parameters"
            if rec.task_seq != len(self.tasks):
                return PhaseError, f"opens task {len(self.tasks)}, not {rec.task_seq}"
            if params.response_deadline <= rec.submitted_block:
                return DeadlineError, "response deadline is not in the future"
            if params.processing_deadline <= params.response_deadline:
                return ValueError, "processing deadline is not after the response deadline"
            if params.escrow_wei < 0:
                return ValueError, f"escrow of {params.escrow_wei} wei is negative"
            if rec.value_wei != params.escrow_wei:
                return FundsError, f"deposits {rec.value_wei} wei, not the task's escrow of {params.escrow_wei}"
        elif rec.task_seq != (seq := task.seq if task else -1):  # with no task open, only a Deploy gets here
            return PhaseError, f"belongs to task {seq}, not {rec.task_seq}"
        elif task is not None:
            # responses close with the response window; the final answer, a void and (a phase refusal:
            # the task has not failed to process yet) a confiscation need it closed; the final answer
            # and quality posts close with the processing window
            block, due, end = rec.submitted_block, task.params.response_deadline, task.params.processing_deadline
            if method == SUBMIT_RESPONSE and block > due:
                return DeadlineError, "response window has closed"
            if method in (SUBMIT_AUTH_CALC, VOID_TASK, CONFISCATE) and block <= due:
                return (PhaseError if method == CONFISCATE else DeadlineError), "response window is still open"
            if method in (SUBMIT_AUTH_CALC, SUBMIT_QUALITY) and block > end:
                return DeadlineError, "processing window has closed"
        gas = self.gas.for_method(method)
        if rec.gas != gas:
            return ValueError, f"gas {rec.gas} != schedule {gas}"
        try:
            fee_ok = rec.fee_wei == self.fee.fee_wei(gas)
        except (OverflowError, ValueError):  # a non-finite or huge fee figure
            fee_ok = False
        if not fee_ok:
            return ValueError, f"fee {rec.fee_wei} off the fee rule"
        if rec.value_wei > 0 and method != CREATE_TASK:
            return ValueError, f"moves {rec.value_wei} wei into escrow"
        if rec.value_wei < 0 and method not in PAYING:
            return ValueError, f"moves {-rec.value_wei} wei out of escrow"
        if rec.beneficiary and method not in PAYING:
            return ValueError, f"pays no one, yet names {rec.beneficiary} its beneficiary"
        if task is not None and -rec.value_wei > task.escrow_wei:
            return FundsError, f"escrow of {task.escrow_wei} wei cannot cover it"
        if method == CONFISCATE and -rec.value_wei != task.escrow_wei:
            return FundsError, f"a confiscation takes the task's whole escrow of {task.escrow_wei} wei"
        if method == REFUND and task.owed[:1] != [(rec.beneficiary, -rec.value_wei)]:
            if not task.owed:
                return FundsError, "no refund is owed"
            return FundsError, "the next refund owed is {1} wei to {0}".format(*task.owed[0])
        return None

    def move(self, rec: LedgerRecord, params: ChainTaskParams | None = None) -> None:
        """Applies rec as it stands (so a replay can follow a log past a refusal):
        records it on its task and moves escrow, phase and totals; a close
        queues the refunds it owes. Only the first Deploy names the requester."""
        method = rec.method
        if method == DEPLOY and self.requester is None:
            self.requester = rec.sender
        elif method == CREATE_TASK and params is not None:
            self.tasks.append(TaskState(rec.task_seq, params, escrow_wei=rec.value_wei, records=[rec]))
        if method not in RULES or method in (DEPLOY, CREATE_TASK) or not self.tasks:
            return
        task = self.tasks[-1]
        task.records.append(rec)
        amount = -rec.value_wei
        task.escrow_wei -= amount
        task.phase = RULES[method][2] or task.phase
        if method == WORKER_PAYMENT:
            task.paid_out_wei += amount
        elif method == CONFISCATE:
            task.confiscated_wei += amount
        elif method == REFUND:
            task.refunded_wei += amount
            del task.owed[:1]
        elif method in (FINALIZE, VOID_TASK):  # a void reimburses its included responders' fees first
            landed = task.included_responses() if method == VOID_TASK else ()
            task.owed = close_refunds(landed, task.escrow_wei, self.requester)


class Ledger:
    """The chain: accounts, transaction log, latency and fees."""

    def __init__(self, seed: int, profile: str = "rinkeby", fee: FeeParams | None = None):
        self.fee = fee or FeeParams()
        self.latency_model = LatencyModel(profile, random.Random(seed))
        self.block = 0
        self.records: list[LedgerRecord] = []
        self.balances: dict[str, int] = {}
        self.contract = TaskContract(self.fee)

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

    def _charge(self, sender: str, wei: int) -> None:
        held = self.balances.get(sender, 0)
        if held < wei:
            raise FundsError(f"{sender} cannot cover {wei} wei")
        self.balances[sender] = held - wei

    # ── the one way onto the chain ──

    def send(
        self,
        method: str,
        sender: str,
        payload: bytes = b"",
        value_wei: int = 0,
        beneficiary: str = "",
        params: ChainTaskParams | None = None,
    ) -> LedgerRecord:
        """Logs a transaction once the contract accepts it: charges its fee and
        deposit, applies it, credits beneficiary with what it moves out, then
        sends the refunds a close left owed. A refused call raises and changes
        nothing."""
        contract = self.contract
        gas = contract.gas.for_method(method)
        rec = LedgerRecord(
            index=len(self.records),
            method=method,
            sender=sender,
            gas=gas,
            fee_wei=self.fee.fee_wei(gas),
            tip_gwei=self.fee.tip_gwei,
            submitted_block=self.block,
            inclusion_block=self.block,  # plus the latency, drawn once it is accepted
            # the task a CreateTask opens, else the latest (-1: none, as for the deploy)
            task_seq=len(contract.tasks) - (method != CREATE_TASK),
            payload=payload,
            value_wei=value_wei,
            beneficiary=beneficiary,
        )
        refusal = contract.check(rec, params)
        if refusal is not None:
            raise refusal[0](f"{method}: {refusal[1]}")
        self._charge(sender, rec.fee_wei + max(value_wei, 0))
        contract.move(rec, params)
        rec.inclusion_block += self.latency_model.latency(self.fee.tip_gwei)
        self.records.append(rec)
        if beneficiary:
            self.fund(beneficiary, -value_wei)
        if method != REFUND and contract.tasks:
            for owed_to, amount in list(contract.tasks[-1].owed):  # each Refund pays the queue's head
                self.send(REFUND, CONTRACT, value_wei=-amount, beneficiary=owed_to)
        return rec


# ── rules the contract, the runner and the log audit share ──


def close_refunds(reimbursed: Iterable[LedgerRecord], escrow_wei: int, requester: str) -> list[tuple[str, int]]:
    """The (beneficiary, wei) refunds that close a task, in order: each
    reimbursed response's fee in log order while the escrow lasts (a void
    reimburses its included responders; the escrow's last wei may cover a fee
    in part), then any escrow left to the requester."""
    refunds, left = [], escrow_wei
    for r in sorted(reimbursed, key=lambda r: r.index):
        if left == 0 < r.fee_wei:
            break
        amount = min(r.fee_wei, left)
        refunds.append((r.sender, amount))
        left -= amount
    if left > 0:
        refunds.append((requester, left))
    return refunds


def chain_summary(records: Iterable[LedgerRecord], tasks: list[TaskState]) -> dict:
    """The chain's totals as the log's summary states them: the gas each
    account spent over the records, by account name, and the wei the tasks
    paid to workers and confiscated."""
    gas: dict[str, int] = {}
    for r in records:
        gas[r.sender] = gas.get(r.sender, 0) + r.gas
    return {
        "gas_by_sender": dict(sorted(gas.items())),
        "payments_wei": sum(t.paid_out_wei for t in tasks),
        "confiscated_wei": sum(t.confiscated_wei for t in tasks),
    }
