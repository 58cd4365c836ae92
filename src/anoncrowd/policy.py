"""Task policies: answer aggregation, correctness, quality and payment.

A policy fixes, for one task: how the final answer is computed from the
included answers (top-gamma majority vote or exact-rational averaging),
what counts as a correct answer against that final answer, the quality
threshold workers must clear to participate, and the two payment levels.

All arithmetic is exact. Thresholds and the averaging tolerance are
rationals; averages are kept as unreduced (numerator, denominator) pairs
so the denominator still tells how many answers were included; threshold
comparison is the strict cross-multiplied integer inequality
alpha * den > num * (alpha + beta).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .encoding import enc_u16, enc_u32, enc_u64, record
from .errors import ConfigError
from .primitives import hash_bytes

MAJORITY = "majority"
AVERAGE = "average"


@dataclass(frozen=True)
class QualityState:
    """Beta-posterior parameters; starts at (1, 1) and each completed task
    increments exactly one of the two by exactly one."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("quality parameters must be >= 1")


@dataclass(frozen=True)
class TaskPolicy:
    kind: str  # MAJORITY or AVERAGE
    domain_size: int  # answers are ids in [0, domain_size)
    threshold: Fraction  # admission bound on the quality mean, strict
    pay_correct: int  # wei
    pay_incorrect: int  # wei
    winners: int = 1  # majority only: how many top answers win
    epsilon: Fraction = Fraction(0)  # average only: absolute tolerance

    def __post_init__(self):
        if self.kind not in (MAJORITY, AVERAGE):
            raise ConfigError(f"unknown aggregation kind {self.kind!r}")
        if self.domain_size < 2:
            raise ConfigError("answer domain needs at least two values")
        if not 0 <= self.threshold < 1:
            raise ConfigError("threshold must lie in [0, 1)")
        if self.pay_correct < 0 or self.pay_incorrect < 0:
            raise ConfigError("payments cannot be negative")
        if self.kind == MAJORITY and not 1 <= self.winners <= self.domain_size:
            raise ConfigError("winner count must lie in [1, domain_size]")
        if self.epsilon < 0:
            raise ConfigError("tolerance cannot be negative")
        try:
            self.encode()
        except OverflowError as exc:
            raise ConfigError(f"a policy field does not fit its wire encoding: {exc}") from None

    def encode(self) -> bytes:
        return record(
            "policy",
            self.kind.encode("ascii"),
            enc_u32(self.domain_size),
            enc_u64(self.threshold.numerator) + enc_u64(self.threshold.denominator),
            enc_u64(self.pay_correct),
            enc_u64(self.pay_incorrect),
            enc_u16(self.winners),
            enc_u64(self.epsilon.numerator) + enc_u64(self.epsilon.denominator),
        )

    def digest(self) -> bytes:
        return hash_bytes(self.encode())

    @property
    def final_ct_count(self) -> int:
        """Ciphertexts in a posted final answer: one per majority winner, or
        the unreduced numerator and denominator of an average."""
        return self.winners if self.kind == MAJORITY else 2


@dataclass(frozen=True)
class FinalAnswer:
    """Aggregation result. Majority: values are the winning ids in rank
    order. Average: values is the unreduced (numerator, denominator)."""

    kind: str
    values: tuple[int, ...]


def ans_calc(answers: list[int], policy: TaskPolicy) -> FinalAnswer:
    """Aggregates included answers. Permutation-invariant by construction."""
    if not answers:
        raise ValueError("cannot aggregate an empty answer list")
    for a in answers:
        if not 0 <= a < policy.domain_size:
            raise ValueError(f"answer {a} outside domain [0, {policy.domain_size})")
    if policy.kind == MAJORITY:
        counts = Counter(answers)
        ranked = sorted(range(policy.domain_size), key=lambda i: (-counts[i], i))
        return FinalAnswer(MAJORITY, tuple(ranked[: policy.winners]))
    return FinalAnswer(AVERAGE, (sum(answers), len(answers)))


def is_correct(answer: int, final: FinalAnswer, policy: TaskPolicy) -> bool:
    if final.kind != policy.kind:
        raise ValueError("final answer does not match the policy kind")
    if policy.kind == MAJORITY:
        return answer in final.values
    num, den = final.values
    # |answer - num/den| <= epsilon, cross-multiplied to stay in integers
    eps = policy.epsilon
    return abs(answer * den - num) * eps.denominator <= eps.numerator * den


def quality_increment(correct: bool | None) -> tuple[int, int]:
    """What one task adds to a worker's (alpha, beta): (1, 0) for a correct
    answer, (0, 1) for an incorrect one, (0, 0) when the task was voided
    (correct is None). Every party that posts, proves, checks or adopts a
    quality update takes the increment from here."""
    if correct is None:
        return (0, 0)
    return (1, 0) if correct else (0, 1)


def qual_update(quality: QualityState, correct: bool | None) -> QualityState:
    d_alpha, d_beta = quality_increment(correct)
    return QualityState(quality.alpha + d_alpha, quality.beta + d_beta)


def quality_mean(quality: QualityState) -> Fraction:
    return Fraction(quality.alpha, quality.alpha + quality.beta)


def clears_threshold(quality: QualityState, policy: TaskPolicy) -> bool:
    t = policy.threshold
    return quality.alpha * t.denominator > t.numerator * (quality.alpha + quality.beta)


def paym_calc(correct: bool, policy: TaskPolicy) -> int:
    return policy.pay_correct if correct else policy.pay_incorrect
