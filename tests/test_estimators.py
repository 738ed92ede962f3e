import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buffon.estimators as estimators
from buffon.errors import DegenerateSampleError, UnsupportedConfigurationError
from buffon.estimators import (
    BatchResult,
    NeedleAggregate,
    TrialAggregate,
    estimate_pi_needle,
    estimate_pi_triangle,
    SplitRun,
    run_batch,
    run_needle_trials,
    run_triangle_trials,
    summarize,
    tally_casts,
)
from buffon.geometry import make_triangle
from buffon.sampling import RngConfig, sample_cast

from conftest import StubStream, brute_force_tally


def _scalar_triangle_totals(n, rng):
    """Cast-by-cast reference, counted side by side, that the blocked runner must reproduce."""
    cx = cy = sq = 0
    for _ in range(n):
        cast = sample_cast(rng, 1.0)
        v = make_triangle((0.0, 0.0), 1.0, cast.rotation)
        count_x, count_y = brute_force_tally(v, cast.offset_x, cast.offset_y)
        cx += count_x
        cy += count_y
        sq += (count_x + count_y) ** 2
    return cx, cy, sq


class TestRunTriangleTrials:
    def test_forced_cast_matches_worked_example(self):
        agg = run_triangle_trials(1, StubStream([0.0, 0.0, 0.25]))
        assert agg == TrialAggregate(1, 2, 2, total_sq_sum=16)

    def test_crossing_rate_converges(self):
        agg = run_triangle_trials(1_000_000, RngConfig(3, 0).stream())
        assert abs(agg.intersections / agg.trials - 12 / math.pi) < 0.02
        assert abs(agg.count_x_total / agg.trials - 6 / math.pi) < 0.02
        assert abs(agg.count_y_total / agg.trials - 6 / math.pi) < 0.02

    @pytest.mark.parametrize("n", [1, 2, 3, 257, 2500])
    def test_blocked_run_equals_scalar_loop(self, n):
        agg = run_triangle_trials(n, RngConfig(60, n).stream())
        expected = _scalar_triangle_totals(n, RngConfig(60, n).stream())
        assert (agg.count_x_total, agg.count_y_total, agg.total_sq_sum) == expected

    def test_block_size_does_not_change_results(self, monkeypatch):
        whole = run_triangle_trials(600, RngConfig(61, 0).stream())
        monkeypatch.setattr(estimators, "_BLOCK", 256)
        pieces = run_triangle_trials(600, RngConfig(61, 0).stream())
        assert whole == pieces

    def test_rejects_mismatched_side_and_spacing(self):
        with pytest.raises(UnsupportedConfigurationError):
            run_triangle_trials(10, RngConfig(1, 0).stream(), side=0.5, spacing=1.0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_triangle_trials(0, RngConfig(1, 0).stream())


class TestEstimatePiTriangle:
    def test_million_trial_arithmetic(self):
        agg = TrialAggregate(1_000_000, 1_909_860, 1_909_859)
        summary = estimate_pi_triangle(agg)
        assert summary.pi_estimate == pytest.approx(12e6 / 3_819_719, rel=1e-15)
        assert f"{summary.pi_estimate:.6f}" == "3.141592"
        assert summary.standard_error is None  # no squared sums tracked

    def test_single_trial_arithmetic(self):
        summary = estimate_pi_triangle(TrialAggregate(1, 2, 2, total_sq_sum=16))
        assert summary.pi_estimate == 3.0
        assert summary.intersections == 4

    def test_zero_intersections_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            estimate_pi_triangle(TrialAggregate(1, 0, 0))

    def test_delta_method_standard_error(self):
        # per-cast totals [2, 4, 0, 2]: mean 2, unbiased variance 8/3
        agg = TrialAggregate(4, 5, 3, total_sq_sum=24)
        summary = estimate_pi_triangle(agg)
        pi_est = 12.0 * 4 / 8
        expected_se = pi_est * math.sqrt(8 / 3) / (2.0 * math.sqrt(4))
        assert summary.pi_estimate == pi_est
        assert summary.standard_error == pytest.approx(expected_se, rel=1e-12)

    def test_aggregate_validation(self):
        with pytest.raises(ValueError):
            TrialAggregate(0, 0, 0)
        with pytest.raises(ValueError):
            TrialAggregate(1, -1, 0)

    def test_crossing_rate_helpers(self):
        agg = TrialAggregate(4, 5, 3, total_sq_sum=24)
        assert agg.crossing_rate == 2.0
        assert agg.crossing_rate_standard_error() == pytest.approx(
            math.sqrt((8 / 3) / 4), rel=1e-12
        )
        assert TrialAggregate(4, 5, 3).crossing_rate_standard_error() is None
        assert TrialAggregate(1, 2, 2, total_sq_sum=16).crossing_rate_standard_error() is None


class TestRunNeedleTrials:
    def test_hit_rate_full_length(self):
        agg = run_needle_trials(1_000_000, RngConfig(4, 0).stream(), 1.0)
        assert abs(agg.hits / agg.trials - 2 / math.pi) < 0.002

    def test_hit_rate_half_length(self):
        agg = run_needle_trials(1_000_000, RngConfig(4, 1).stream(), 0.5)
        assert abs(agg.hits / agg.trials - 1 / math.pi) < 0.002

    def test_flat_angle_only_hits_at_zero_distance(self):
        # angle 0 makes sin(angle) = 0, so only distance 0 can hit
        assert run_needle_trials(1, StubStream([0.3, 0.0]), 1.0).hits == 0
        assert run_needle_trials(1, StubStream([0.0, 0.0]), 1.0).hits == 1

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_rejects_bad_ratio(self, ratio):
        with pytest.raises(ValueError):
            run_needle_trials(10, RngConfig(1, 0).stream(), ratio)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_needle_trials(0, RngConfig(1, 0).stream())


class TestEstimatePiNeedle:
    def test_million_trial_arithmetic(self):
        summary = estimate_pi_needle(NeedleAggregate(1_000_000, 636_620, 1.0))
        assert summary.pi_estimate == pytest.approx(2e6 / 636_620, rel=1e-15)

    def test_two_trials(self):
        assert estimate_pi_needle(NeedleAggregate(2, 1, 1.0)).pi_estimate == 4.0

    def test_zero_hits_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            estimate_pi_needle(NeedleAggregate(5, 0, 1.0))

    def test_binomial_error_propagation(self):
        agg = NeedleAggregate(100, 64, 1.0)
        summary = estimate_pi_needle(agg)
        p = 0.64
        se_p = math.sqrt(p * (1 - p) / 100)
        assert summary.standard_error == pytest.approx((2.0 / p) * se_p / p, rel=1e-12)


class TestRunBatch:
    def test_repeat_invocations_identical(self):
        a = run_batch(3, 2000, RngConfig(8, 0))
        b = run_batch(3, 2000, RngConfig(8, 0))
        assert a == b

    def test_worker_count_does_not_change_values(self):
        serial = run_batch(4, 1000, RngConfig(8, 0), workers=1)
        parallel = run_batch(4, 1000, RngConfig(8, 0), workers=2)
        assert serial == parallel

    def test_each_run_uses_its_stream(self):
        result = run_batch(3, 5000, RngConfig(15, 0))
        for k in range(3):
            agg = run_triangle_trials(5000, RngConfig(15, k).stream())
            assert result.estimates[k] == estimate_pi_triangle(agg).pi_estimate

    def test_histogram_counts_and_mean(self):
        result = run_batch(50, 1000, RngConfig(16, 0), bins=12)
        assert len(result.estimates) == 50
        assert len(result.histogram) == 12
        assert sum(count for _, _, count in result.histogram) == 50
        assert result.mean == pytest.approx(float(np.mean(result.estimates)), rel=1e-12)
        stats = summarize(result.estimates)
        assert (result.mean, result.stddev) == (stats.mean, stats.stddev)

    def test_needle_batch(self):
        result = run_batch(5, 20_000, RngConfig(17, 0), "needle", ratio=0.75)
        assert abs(result.mean - math.pi) < 0.1

    def test_degenerate_run_reports_its_index(self):
        with pytest.raises(DegenerateSampleError, match="run 0"):
            run_batch(1, 1, RngConfig(0, 0), "needle", ratio=1e-9)

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            run_batch(0, 10, RngConfig(1, 0))
        with pytest.raises(ValueError):
            run_batch(1, 0, RngConfig(1, 0))
        with pytest.raises(ValueError):
            run_batch(1, 1, RngConfig(1, 0), bins=0)
        with pytest.raises(ValueError):
            run_batch(1, 1, RngConfig(1, 0), "coin")

    def test_single_run_batch(self):
        result = run_batch(1, 1000, RngConfig(18, 0))
        assert result.stddev == 0.0
        assert len(result.estimates) == 1


def _straight_tallies(n, config, method, ratio):
    """The tallies of one unsplit pass over the stream."""
    if method == "triangle":
        agg = run_triangle_trials(n, config.stream())
        return agg.count_x_total, agg.count_y_total, agg.total_sq_sum
    return (run_needle_trials(n, config.stream(), ratio).hits,)


def _count_unit(unit):
    return 1, unit[3], 0


class TestChunkedRuns:
    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(["triangle", "needle"]),
        seed=st.integers(0, (1 << 64) - 1),
        stream_id=st.integers(0, (1 << 64) - 1),
        n=st.integers(1, 3000),
        cuts=st.lists(st.integers(1, 750), max_size=5),
    )
    def test_summed_chunk_tallies_equal_a_straight_run(self, method, seed, stream_id, n, cuts):
        # A chunk may start at any multiple of 4 casts (triangle) or 2 drops (needle).
        step = 4 if method == "triangle" else 2
        bounds = sorted({0, n} | {c * step for c in cuts if c * step < n})
        chunks = [
            tally_casts((seed, stream_id, a, b - a, method, 0.5)) for a, b in zip(bounds, bounds[1:])
        ]
        summed = tuple(map(sum, zip(*chunks)))
        assert summed == _straight_tallies(n, RngConfig(seed, stream_id), method, 0.5)

    @pytest.mark.parametrize("method, start", [("triangle", 2), ("triangle", 6), ("needle", 1)])
    def test_unit_off_a_counter_boundary_is_rejected(self, method, start):
        with pytest.raises(ValueError, match="multiple of 4"):
            tally_casts((1, 0, start, 10, method, 0.5))

    @staticmethod
    def _split_run(trials, config, method, ratio, workers):
        with SplitRun(trials, config, method, ratio=ratio, workers=workers) as run:
            if method == "triangle":
                return run.join(run_triangle_trials(run.head, config.stream()))
            return run.join(run_needle_trials(run.head, config.stream(), ratio))

    @pytest.mark.parametrize("window", [1 << 12, 2])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("method", ["triangle", "needle"])
    def test_split_run_equals_a_straight_run(self, monkeypatch, workers, method, window):
        # Blocks and pool units of 256 casts: at 2 workers this process draws 512
        # of the 1029 casts and the pool three units (256, 256 and a tail of 5);
        # at 3 workers it draws 256 and the pool four.  A window of 2 units
        # doubles the unit size instead.
        monkeypatch.setattr(estimators, "_BLOCK", 256)
        monkeypatch.setattr(estimators, "_TASK_CASTS", 256)
        monkeypatch.setattr(estimators, "_WINDOW_UNITS", window)
        config = RngConfig(19, 4)
        agg = self._split_run(1029, config, method, 0.5, workers)
        expected = _straight_tallies(1029, config, method, 0.5)
        if method == "triangle":
            assert agg == TrialAggregate(1029, *expected)
        else:
            assert agg == NeedleAggregate(1029, expected[0], 0.5)

    @pytest.mark.parametrize("trials, workers, head", [
        (1000, 4, 1000), (65536, 2, 65536), (131072, 2, 65536), (6_000_000, 2, 46 * 65536),
        (6_000_000, 3, 31 * 65536), (6_000_000, 1, 6_000_000),
    ])
    def test_head_is_a_whole_block_share(self, trials, workers, head):
        # A run of at most one block, or one worker, stays in this process.
        assert SplitRun(trials, RngConfig(1, 0), workers=workers).head == head

    def test_batch_runs_longer_than_a_block(self, monkeypatch):
        # Three runs of four units, mapped in windows of 5, 5 and 2 units that span runs.
        monkeypatch.setattr(estimators, "_BLOCK", 256)
        monkeypatch.setattr(estimators, "_WINDOW_UNITS", 5)
        result = run_batch(3, 1000, RngConfig(20, 0), workers=2)
        for k in range(3):
            agg = run_triangle_trials(1000, RngConfig(20, k).stream())
            assert result.estimates[k] == estimate_pi_triangle(agg).pi_estimate

    def test_a_long_split_run_has_at_most_a_window_of_units(self, monkeypatch):
        # 1e10 casts would be 19000 units of _TASK_CASTS; each stand-in unit
        # tallies (1, its casts, 0), so the join counts units and casts.
        monkeypatch.setattr(estimators, "tally_casts", _count_unit)
        with SplitRun(10**10, RngConfig(1, 0), workers=2) as run:
            agg = run.join(TrialAggregate(run.head, 0, 0, 0))
        assert agg.trials == 10**10
        assert agg.count_y_total == 10**10 - run.head
        assert 2000 < agg.count_x_total <= estimators._WINDOW_UNITS

    def test_split_run_validation(self):
        for args, kwargs in [
            ((0, RngConfig(1, 0)), {}),
            ((10, RngConfig(1, 0), "coin"), {}),
            ((10, RngConfig(1, 0), "needle"), {"ratio": 1.5}),
            ((10, RngConfig(1, 0)), {"workers": 0}),
        ]:
            with pytest.raises(ValueError):
                SplitRun(*args, **kwargs)
        with SplitRun(10, RngConfig(1, 0)) as run:
            with pytest.raises(ValueError, match="head has 10 casts"):
                run.join(run_triangle_trials(9, RngConfig(1, 0).stream()))


class TestSummarize:
    def test_constant_list(self):
        stats = summarize([3.0, 3.0, 3.0])
        assert stats.mean == 3.0
        assert stats.stddev == 0.0
        assert stats.ci_low == stats.ci_high == 3.0

    def test_two_values(self):
        stats = summarize([2.0, 4.0])
        assert stats.mean == 3.0
        assert stats.stddev == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert stats.standard_error == pytest.approx(1.0, rel=1e-12)
        assert stats.ci_low == pytest.approx(3.0 - 1.96, rel=1e-12)
        assert stats.ci_high == pytest.approx(3.0 + 1.96, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_confidence_interval_coverage(self):
        # 100 scaled-down batches; the 95% CI should catch pi in >= 90
        covered = 0
        for i in range(100):
            result = run_batch(50, 2000, RngConfig(1000 + i, 0))
            stats = summarize(result.estimates)
            covered += stats.ci_low <= math.pi <= stats.ci_high
        assert covered >= 90


class TestConvergenceScaling:
    def test_one_over_sqrt_n_stddev(self):
        narrow = run_batch(200, 10_000, RngConfig(20240810, 0))
        wide = run_batch(200, 40_000, RngConfig(20240811, 0))
        ratio = wide.stddev / narrow.stddev
        assert 0.4 <= ratio <= 0.6
