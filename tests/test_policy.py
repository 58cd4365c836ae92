"""Aggregation, correctness, quality and payment rules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd.errors import ConfigError
from anoncrowd.policy import (
    AVERAGE,
    MAJORITY,
    FinalAnswer,
    QualityState,
    TaskPolicy,
    ans_calc,
    clears_threshold,
    is_correct,
    paym_calc,
    qual_update,
    quality_mean,
)


def majority_policy(winners=1, domain=2, threshold=Fraction(3, 4)):
    return TaskPolicy(
        kind=MAJORITY,
        domain_size=domain,
        threshold=threshold,
        pay_correct=100,
        pay_incorrect=10,
        winners=winners,
    )


def average_policy(domain=5, epsilon=Fraction(1, 2)):
    return TaskPolicy(
        kind=AVERAGE,
        domain_size=domain,
        threshold=Fraction(3, 4),
        pay_correct=100,
        pay_incorrect=10,
        epsilon=epsilon,
    )


def recount_oracle(answers, domain, winners):
    """Winner selection recomputed the slow way: per-id occurrence counting
    with list.count, stable selection by repeated max extraction."""
    remaining = list(range(domain))
    picked = []
    while len(picked) < winners:
        best = None
        for i in remaining:
            c = answers.count(i)
            if best is None or c > answers.count(best) or (c == answers.count(best) and i < best):
                best = i
        picked.append(best)
        remaining.remove(best)
    return tuple(picked)


class TestAnsCalcMajority:
    def test_simple_majority(self):
        final = ans_calc([1, 1, 0], majority_policy())
        assert final == FinalAnswer(MAJORITY, (1,))

    def test_tie_breaks_toward_lower_id(self):
        final = ans_calc([0, 0, 1, 1], majority_policy())
        assert final.values == (0,)

    def test_three_winners_rank_order(self):
        votes = [2, 2, 2, 4, 4, 1]
        final = ans_calc(votes, majority_policy(winners=3, domain=5))
        assert final.values == (2, 4, 1)

    def test_winners_can_include_zero_vote_ids(self):
        final = ans_calc([3, 3], majority_policy(winners=3, domain=5))
        assert final.values == (3, 0, 1)

    def test_against_recount_oracle_random(self):
        rng = random.Random(55)
        for _ in range(300):
            domain = rng.randrange(2, 9)
            winners = rng.randrange(1, domain + 1)
            n = rng.randrange(1, 65)
            votes = [rng.randrange(domain) for _ in range(n)]
            got = ans_calc(votes, majority_policy(winners=winners, domain=domain))
            assert got.values == recount_oracle(votes, domain, winners)

    def test_empty_answer_list_errors(self):
        with pytest.raises(ValueError):
            ans_calc([], majority_policy())

    def test_out_of_domain_answer_errors(self):
        with pytest.raises(ValueError):
            ans_calc([0, 2], majority_policy(domain=2))


class TestAnsCalcAverage:
    def test_unreduced_fraction(self):
        final = ans_calc([2, 2], average_policy())
        assert final.values == (4, 2)  # not reduced to 2/1

    def test_known_value(self):
        final = ans_calc([0, 1, 2, 3, 4], average_policy())
        assert final.values == (10, 5)


class TestIsCorrect:
    def test_majority_membership(self):
        final = FinalAnswer(MAJORITY, (2, 4, 1))
        pol = majority_policy(winners=3, domain=5)
        for a in range(5):
            assert is_correct(a, final, pol) == (a in (2, 4, 1))

    def test_average_tolerance_band(self):
        pol = average_policy(epsilon=Fraction(1, 2))
        final = ans_calc([1, 2], pol)  # mean 3/2
        assert is_correct(1, final, pol)
        assert is_correct(2, final, pol)
        assert not is_correct(3, final, pol)
        assert not is_correct(0, final, pol)

    def test_average_band_boundary_is_inclusive(self):
        pol = average_policy(epsilon=Fraction(1, 2))
        final = FinalAnswer(AVERAGE, (5, 2))  # mean 2.5
        assert is_correct(2, final, pol)
        assert is_correct(3, final, pol)
        assert not is_correct(4, final, pol)

    def test_zero_tolerance_requires_exact_hit(self):
        pol = average_policy(epsilon=Fraction(0))
        assert is_correct(2, FinalAnswer(AVERAGE, (4, 2)), pol)
        assert not is_correct(2, FinalAnswer(AVERAGE, (5, 2)), pol)

    def test_kind_mismatch_errors(self):
        with pytest.raises(ValueError):
            is_correct(0, FinalAnswer(AVERAGE, (1, 1)), majority_policy())


class TestQuality:
    def test_update_truth_table(self):
        q = QualityState(3, 2)
        assert qual_update(q, True) == QualityState(4, 2)
        assert qual_update(q, False) == QualityState(3, 3)
        assert qual_update(q, None) == q  # a voided task

    def test_mean(self):
        assert quality_mean(QualityState(1, 1)) == Fraction(1, 2)
        assert quality_mean(QualityState(4, 1)) == Fraction(4, 5)

    def test_threshold_is_strict(self):
        pol = majority_policy(threshold=Fraction(3, 4))
        assert clears_threshold(QualityState(4, 1), pol)  # 80% > 75%
        assert not clears_threshold(QualityState(3, 1), pol)  # 75% not > 75%
        assert not clears_threshold(QualityState(1, 1), pol)

    def test_threshold_boundary_exhaustive_small(self):
        # strict comparison against the exact rational mean, all small states
        for t_num, t_den in [(1, 2), (3, 4), (2, 5), (0, 1)]:
            pol = majority_policy(threshold=Fraction(t_num, t_den))
            for alpha in range(1, 12):
                for beta in range(1, 12):
                    expected = Fraction(alpha, alpha + beta) > Fraction(t_num, t_den)
                    got = clears_threshold(QualityState(alpha, beta), pol)
                    assert got == expected, (alpha, beta, t_num, t_den)

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            QualityState(0, 1)
        with pytest.raises(ValueError):
            QualityState(1, 0)


class TestPaymentsAndValidation:
    def test_paym_calc(self):
        pol = majority_policy()
        assert paym_calc(True, pol) == 100
        assert paym_calc(False, pol) == 10

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            TaskPolicy("median", 2, Fraction(1, 2), 1, 0)
        with pytest.raises(ConfigError):
            majority_policy(domain=1)
        with pytest.raises(ConfigError):
            majority_policy(winners=3, domain=2)
        with pytest.raises(ConfigError):
            majority_policy(threshold=Fraction(5, 4))
        with pytest.raises(ConfigError, match="wire encoding"):
            majority_policy(domain=2**40)  # past the u32 the statements encode

    def test_policy_digest_tracks_content(self):
        a = majority_policy()
        b = majority_policy(threshold=Fraction(1, 2))
        assert a.digest() == majority_policy().digest()
        assert a.digest() != b.digest()


# ── property sweeps ──────────────────────────────────────────────────────────

_votes = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=64)


@given(votes=_votes, seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=120)
def test_ans_calc_permutation_invariant(votes, seed):
    pol = majority_policy(winners=3, domain=5)
    shuffled = votes[:]
    random.Random(seed).shuffle(shuffled)
    assert ans_calc(votes, pol) == ans_calc(shuffled, pol)
    avg = average_policy()
    assert ans_calc(votes, avg) == ans_calc(shuffled, avg)


@given(votes=_votes)
@settings(max_examples=80)
def test_majority_winner_really_has_max_count(votes):
    pol = majority_policy(winners=1, domain=5)
    winner = ans_calc(votes, pol).values[0]
    assert votes.count(winner) == max(votes.count(i) for i in range(5))


@given(
    alpha=st.integers(min_value=1, max_value=10**6),
    beta=st.integers(min_value=1, max_value=10**6),
    correct=st.booleans(),
)
@settings(max_examples=100)
def test_qual_update_increments_exactly_one(alpha, beta, correct):
    q = QualityState(alpha, beta)
    q2 = qual_update(q, correct)
    assert (q2.alpha - q.alpha, q2.beta - q.beta) == ((1, 0) if correct else (0, 1))
