"""Multi-seed distributional invariants of the estimators.

One pass over 100 seeds at a million trials per method; roughly half a
minute of CPU.
"""

import math

from buffon.estimators import (
    estimate_pi_needle,
    estimate_pi_triangle,
    run_needle_trials,
    run_triangle_trials,
)
from buffon.sampling import RngConfig

TRIALS = 1_000_000
SEEDS = 100


def test_crossing_rate_unbiased_and_estimators_consistent():
    unbiased = triangle_ok = needle_ok = 0
    for seed in range(SEEDS):
        tally = run_triangle_trials(TRIALS, RngConfig(seed, 0).stream())
        rate, stderr = tally.rate()
        unbiased += abs(rate - 12 / math.pi) < 5 * stderr
        triangle_ok += abs(estimate_pi_triangle(tally).pi_estimate - math.pi) < 0.01

        needle = run_needle_trials(TRIALS, RngConfig(seed, 1).stream())
        needle_ok += abs(estimate_pi_needle(needle).pi_estimate - math.pi) < 0.01

    assert unbiased >= 99, f"crossing rate within 5 stderr of 12/pi in only {unbiased}/100 seeds"
    assert triangle_ok >= 95, f"triangle estimate within 0.01 of pi in only {triangle_ok}/100 seeds"
    assert needle_ok >= 95, f"needle estimate within 0.01 of pi in only {needle_ok}/100 seeds"
