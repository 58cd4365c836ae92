"""Counts that do not drift: a scaling gate on the run's Python call counts.

Wall time on a shared machine drifts by a fifth from one run to the next, but
cProfile's call counts repeat exactly from one warm run to the next. So a
count can gate what a timer cannot: a run whose work grows faster than its
cast. The first warm-up of a process differs (lazy tables, caches), so every
count here is taken after one.
"""

import cProfile
import pstats
from dataclasses import replace

from anoncrowd.harness.fixtures import generate_answers, render_fixture
from anoncrowd.harness.runner import run
from anoncrowd.harness.scenario import SUBMITS_PER_BLOCK, load_scenario

WORKERS = (32, 64, 128)
GROWTH_PER_DOUBLING = 2.2  # linear work doubles, plus the fixed cost; quadratic work quadruples


def warm_call_counts(cfg, seed=1):
    """Calls per function (as pstats names it) of one run of cfg, profiled after a warm-up run."""
    run(cfg, seed)
    profile = cProfile.Profile()
    result = profile.runcall(run, cfg, seed)
    assert result.failures == []
    return {pstats.func_std_string(f): calls for f, (_, calls, *_) in pstats.Stats(profile).stats.items()}


def majority(n, tmp_path):
    """image_annotation's single-winner majority on tiny31 with n workers,
    every response inside the window and an escrow that pays them all."""
    base = load_scenario("image_annotation")
    fixture = tmp_path / f"biased-{n}.csv"
    fixture.write_text(render_fixture(generate_answers("biased", n, 2, seed=n)))
    return replace(
        base,
        backend="tiny31",
        worker_count=n,
        min_workers=n // 2,
        response_window=n // SUBMITS_PER_BLOCK + 16,
        escrow_wei=n * base.policy.pay_correct,
        fixture=str(fixture),
    )


def test_call_count_grows_linearly_in_the_workers(tmp_path):
    totals = [sum(warm_call_counts(majority(n, tmp_path)).values()) for n in WORKERS]
    for small, large in zip(totals, totals[1:]):
        assert large <= GROWTH_PER_DOUBLING * small, dict(zip(WORKERS, totals))


def test_warm_runs_give_equal_counts(tmp_path):
    cfg = majority(WORKERS[0], tmp_path)
    assert warm_call_counts(cfg) == warm_call_counts(cfg)

