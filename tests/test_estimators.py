import dataclasses
import functools
import math
import os
import statistics
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import buffon.estimators as estimators
from buffon.estimators import (
    DegenerateSampleError,
    SplitRun,
    Tally,
    estimate_pi_needle,
    estimate_pi_triangle,
    run_batch,
    run_needle_trials,
    run_single,
    run_triangle_trials,
    tally_casts,
)
from buffon.geometry import FILTER_GUARD, crossings_per_cast, filter_workspace, filtered_crossings, make_triangle
from buffon.sampling import UNIFORMS_PER_CAST, UNIFORMS_PER_DROP, RngConfig, cast_columns, sample_cast

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
        tally = run_triangle_trials(1, StubStream([0.0, 0.0, 0.25]))
        assert tally == Tally("triangle", 1, (2, 2, 16))

    def test_crossing_rate_converges(self):
        tally = run_triangle_trials(1_000_000, RngConfig(3, 0).stream())
        count_x, count_y, _ = tally.counts
        assert abs(tally.intersections / tally.trials - 12 / math.pi) < 0.02
        assert abs(count_x / tally.trials - 6 / math.pi) < 0.02
        assert abs(count_y / tally.trials - 6 / math.pi) < 0.02

    @pytest.mark.parametrize("n", [1, 2, 3, 257, 2500])
    def test_blocked_run_equals_scalar_loop(self, n):
        tally = run_triangle_trials(n, RngConfig(60, n).stream())
        assert tally.counts == _scalar_triangle_totals(n, RngConfig(60, n).stream())

    @pytest.mark.parametrize("spacing", [1.0, 3.7])
    def test_tallies_equal_the_float64_path(self, spacing):
        # Four blocks and a tail through the float32 filter, against one
        # float64 pass over the same casts scaled up to ``spacing``.  Counts
        # are scale-invariant but for rounding at a line, so the casts the
        # filter flags near keep their unit counts.
        for seed in (0, 1, 42):
            tally = run_triangle_trials(300_000, RngConfig(seed, 0).stream())
            casts = cast_columns(RngConfig(seed, 0).stream().random(UNIFORMS_PER_CAST * 300_000))
            near = filtered_crossings(*casts, filter_workspace(300_000))[2]
            unit, scaled = _float64_counts(*casts), _float64_counts(*casts, spacing)
            count_x, count_y = (np.where(near, u, s) for u, s in zip(unit, scaled))
            total = count_x + count_y
            assert tally.counts == (int(count_x.sum()), int(count_y.sum()), int(np.dot(total, total)))

    def test_block_size_does_not_change_results(self, monkeypatch):
        whole = run_triangle_trials(600, RngConfig(61, 0).stream())
        monkeypatch.setattr(estimators, "_BLOCK", 256)
        pieces = run_triangle_trials(600, RngConfig(61, 0).stream())
        assert whole == pieces

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_triangle_trials(0, RngConfig(1, 0).stream())


class TestEstimatePiTriangle:
    def test_million_trial_arithmetic(self):
        tally = Tally("triangle", 1_000_000, (1_909_860, 1_909_859, 15_000_000))
        summary = estimate_pi_triangle(tally)
        assert summary.pi_estimate == pytest.approx(12e6 / 3_819_719, rel=1e-15)
        assert f"{summary.pi_estimate:.6f}" == "3.141592"
        assert summary.standard_error > 0

    def test_single_trial_arithmetic(self):
        tally = Tally("triangle", 1, (2, 2, 16))
        summary = estimate_pi_triangle(tally)
        assert summary.pi_estimate == 3.0
        assert tally.intersections == 4
        assert summary.standard_error is None  # no spread in a single cast

    def test_zero_intersections_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            estimate_pi_triangle(Tally("triangle", 1, (0, 0, 0)))

    def test_delta_method_standard_error(self):
        # per-cast totals [2, 4, 0, 2]: mean 2, unbiased variance 8/3
        tally = Tally("triangle", 4, (5, 3, 24))
        summary = estimate_pi_triangle(tally)
        pi_est = 12.0 * 4 / 8
        expected_se = pi_est * math.sqrt(8 / 3) / (2.0 * math.sqrt(4))
        assert summary.pi_estimate == pi_est
        assert summary.standard_error == pytest.approx(expected_se, rel=1e-12)

    def test_aggregate_validation(self):
        for args in [
            ("triangle", 0, (0, 0, 0)),  # no trials
            ("triangle", 1, (-1, 0, 0)),  # a negative count
            ("triangle", 1, (2, 2)),  # no squared sums
            ("needle", 1, (1, 0)),  # a needle has one count
            ("coin", 1, (1,)),
            ("needle", 3, (4,)),  # more hits than drops
            ("needle", 3, (-1,)),
            ("triangle", 4, (5, 3, 24), 0.5),  # a triangle has no length ratio
        ]:
            with pytest.raises(ValueError):
                Tally(*args)
        for ratio in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                Tally("needle", 3, (1,), ratio)
        # Each estimator takes only its own method's tally.
        with pytest.raises(ValueError, match="expected a triangle tally"):
            estimate_pi_triangle(Tally("needle", 2, (1,)))
        with pytest.raises(ValueError, match="expected a needle tally"):
            estimate_pi_needle(Tally("triangle", 4, (5, 3, 24)))

    def test_crossing_rate_helpers(self):
        rate, standard_error = Tally("triangle", 4, (5, 3, 24)).rate()
        assert rate == 2.0
        assert standard_error == pytest.approx(math.sqrt((8 / 3) / 4), rel=1e-12)
        assert Tally("triangle", 1, (2, 2, 16)).rate() == (4.0, None)
        # Every cast crossed as many lines: no spread, a zero error.
        assert Tally("triangle", 3, (6, 6, 48)).rate() == (4.0, 0.0)
        assert Tally("needle", 100, (64,)).rate() == (0.64, math.sqrt(0.64 * 0.36 / 100))


class TestRunNeedleTrials:
    def test_hit_rate_full_length(self):
        tally = run_needle_trials(1_000_000, RngConfig(4, 0).stream(), 1.0)
        assert abs(tally.rate()[0] - 2 / math.pi) < 0.002

    def test_hit_rate_half_length(self):
        tally = run_needle_trials(1_000_000, RngConfig(4, 1).stream(), 0.5)
        assert abs(tally.rate()[0] - 1 / math.pi) < 0.002

    def test_flat_angle_only_hits_at_zero_distance(self):
        # angle 0 makes sin(angle) = 0, so only distance 0 can hit
        assert run_needle_trials(1, StubStream([0.3, 0.0]), 1.0).counts == (0,)
        assert run_needle_trials(1, StubStream([0.0, 0.0]), 1.0).counts == (1,)

    @pytest.mark.parametrize("ratio", [0.5, 1.0])
    def test_hits_equal_the_float64_path(self, ratio):
        for seed in (1, 2):
            tally = run_needle_trials(1_000_000, RngConfig(seed, 0).stream(), ratio)
            u = RngConfig(seed, 0).stream().random(2_000_000).reshape(-1, 2)
            assert tally.counts == (int(np.count_nonzero(ratio / 2 * np.sin(math.pi * u[:, 1]) >= 0.5 * u[:, 0])),)

    @given(
        angle=st.floats(0.0, 1.0, exclude_max=True),
        ratio=st.sampled_from([0.5, 1.0]) | st.floats(0.01, 1.0),
        shift=st.sampled_from([0.0, 1e-12, -1e-12, 1e-7, -1e-7, 2 * FILTER_GUARD, -2 * FILTER_GUARD]),
    )
    def test_drops_at_the_hit_threshold(self, angle, ratio, shift):
        # The distance sits ``shift`` from the needle's reach, and the drop
        # is decided as the float64 comparison decides it.
        reach = float(ratio / 2 * np.sin(np.array([math.pi * angle]))[0])
        distance = 2.0 * (reach + shift)
        assume(0.0 <= distance < 1.0)
        assert run_needle_trials(1, StubStream([distance, angle]), ratio).counts == (int(reach >= 0.5 * distance),)

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_rejects_bad_ratio(self, ratio):
        with pytest.raises(ValueError):
            run_needle_trials(10, RngConfig(1, 0).stream(), ratio)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_needle_trials(0, RngConfig(1, 0).stream())


class TestEstimatePiNeedle:
    def test_million_trial_arithmetic(self):
        summary = estimate_pi_needle(Tally("needle", 1_000_000, (636_620,)))
        assert summary.pi_estimate == pytest.approx(2e6 / 636_620, rel=1e-15)

    def test_two_trials(self):
        assert estimate_pi_needle(Tally("needle", 2, (1,))).pi_estimate == 4.0

    def test_zero_hits_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            estimate_pi_needle(Tally("needle", 5, (0,)))

    def test_binomial_error_propagation(self):
        summary = estimate_pi_needle(Tally("needle", 100, (64,)))
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
            tally = run_triangle_trials(5000, RngConfig(15, k).stream())
            assert result.estimates[k] == estimate_pi_triangle(tally).pi_estimate

    def test_histogram_counts_and_mean(self):
        result = run_batch(50, 1000, RngConfig(16, 0), bins=12)
        assert len(result.estimates) == 50
        assert len(result.histogram) == 12
        assert sum(count for _, _, count in result.histogram) == 50
        assert result.mean == pytest.approx(float(np.mean(result.estimates)), rel=1e-12)

    def test_needle_batch(self):
        result = run_batch(5, 20_000, RngConfig(17, 0), "needle", ratio=0.75)
        assert abs(result.mean - math.pi) < 0.1

    def test_degenerate_run_reports_its_index(self):
        with pytest.raises(DegenerateSampleError, match="run 0"):
            run_batch(1, 1, RngConfig(0, 0), "needle", ratio=1e-9)

    @pytest.mark.parametrize("method, seed, noun", [("triangle", 34, "crossings"), ("needle", 32, "hits")])
    def test_first_degenerate_run_is_named(self, method, seed, noun):
        # Runs of one cast: the first run with no crossings or hits, found run
        # by run, is the one the batch error names.
        first = next(k for k in range(1000) if not any(_straight_tallies(1, RngConfig(seed, k), method, 0.5)[:2]))
        assert first > 0
        with pytest.raises(DegenerateSampleError) as info:
            run_batch(1000, 1, RngConfig(seed, 0), method, ratio=0.5)
        assert str(info.value) == f"run {first}: no {noun} in 1 trials; cannot estimate pi"

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
        return run_triangle_trials(n, config.stream()).counts
    return run_needle_trials(n, config.stream(), ratio).counts


def _rows(task):
    """The number of runs a ``tally_casts`` task touches, and so of its rows."""
    _, _, start, casts, trials, *_ = task
    return (start + casts - 1) // trials + 1


def _count_task(task):
    return [(1, task[3], 0)] * _rows(task)


def _log_tasks(monkeypatch, log):
    """Make every process append ``pid stream start casts`` to ``log`` for each ``tally_casts`` task it runs."""
    def logged(task):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {task[1]} {task[2]} {task[3]}\n")
        return tally_casts(task)

    monkeypatch.setattr(estimators, "tally_casts", logged)


def _logged_tasks(log):
    """The tasks logged by ``_log_tasks``, as ``(pid, stream, start, casts)``."""
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()] if log.exists() else []


def _child_tasks(log):
    """The tasks the children logged: not those of this process."""
    return [task for task in _logged_tasks(log) if task[0] != os.getpid()]


def _own_tasks(log):
    """The tasks this process logged."""
    return [task for task in _logged_tasks(log) if task[0] == os.getpid()]


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
        chunks = [tally_casts((seed, stream_id, a, b - a, n, method, 0.5)) for a, b in zip(bounds, bounds[1:])]
        summed = tuple(sum(chunks)[0].tolist())
        assert summed == _straight_tallies(n, RngConfig(seed, stream_id), method, 0.5)

    @pytest.mark.parametrize("method, start", [("triangle", 2), ("triangle", 6), ("needle", 1)])
    def test_unit_off_a_counter_boundary_is_rejected(self, method, start):
        with pytest.raises(ValueError, match="multiple of 4"):
            tally_casts((1, 0, start, 10, 100, method, 0.5))

    @pytest.mark.parametrize("start, casts", [(0, 201), (96, 105), (0, 300)])
    def test_a_task_past_the_last_stream_is_rejected_before_it_draws(self, monkeypatch, start, casts):
        # Runs of 100 from stream 2**64 - 2: a task that reaches a third run
        # would key stream 2**64.  The check comes before any run is re-keyed.
        monkeypatch.setattr(estimators, "key_philox", mock.Mock(side_effect=AssertionError("re-keyed")))
        with pytest.raises(ValueError, match="stream_id must be an unsigned 64-bit integer, got 18446744073709551616"):
            tally_casts((1, (1 << 64) - 2, start, casts, 100, "triangle", 1.0))

    def test_a_task_up_to_the_last_stream_is_tallied(self):
        last = (1 << 64) - 1
        rows = tally_casts((1, last - 1, 96, 104, 100, "needle", 0.5)).tolist()
        first = run_needle_trials(4, RngConfig(1, last - 1).stream(96 * UNIFORMS_PER_DROP), 0.5)
        assert rows == [list(first.counts), list(_straight_tallies(100, RngConfig(1, last), "needle", 0.5))]

    @pytest.mark.parametrize("cpus", [1 << 12, 2])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("method", ["triangle", "needle"])
    def test_split_run_equals_a_straight_run(self, monkeypatch, workers, method, cpus):
        # Blocks of 256 casts: at 2 workers, or 3 on 2 CPUs, two children take
        # 768 and 261 of the 1029 casts; at 3 workers on more CPUs three take
        # 512, 256 and 261, and at one worker this process tallies them all.
        # A batch of 3 such runs is cut the same way, inside runs.
        monkeypatch.setattr(estimators, "_BLOCK", 256)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
        config, ratio = RngConfig(19, 4), 0.5 if method == "needle" else 1.0
        expected = Tally(method, 1029, _straight_tallies(1029, config, method, 0.5), ratio)
        assert run_single(1029, config, method, ratio=0.5, workers=workers) == expected
        with SplitRun(1029, config, method, ratio=0.5, workers=workers, runs=3) as batch:
            tallies = batch.join()
        assert tallies == [
            Tally(method, 1029, _straight_tallies(1029, RngConfig(19, k), method, 0.5), ratio) for k in (4, 5, 6)
        ]

    @pytest.mark.parametrize("trials, workers, first", [
        (1000, 4, 1000), (estimators._BLOCK, 2, estimators._BLOCK), (131072, 2, 65536), (6_000_000, 2, 46 * 65536),
        (6_000_000, 3, 31 * 65536), (6_000_000, 1, 6_000_000),
    ])
    def test_the_first_share_is_whole_blocks(self, monkeypatch, trials, workers, first):
        # The first share of an even cut is rounded up to whole blocks: a run
        # of at most one block, or one worker, is a single share.
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 4)
        assert SplitRun(trials, RngConfig(1, 0), workers=workers)._shares[0] == (0, first)

    def test_without_fork_one_process_draws_all(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert SplitRun(300001, RngConfig(1, 0), workers=4, runs=3)._shares == [(0, 900003)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_is_tallied_once(self, monkeypatch, workers):
        # A second tally would find every child reaped; it must not pass off
        # the casts of one share as the whole run's.
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        config = RngConfig(1, 0)
        with SplitRun(200000, config, workers=workers) as run:
            assert run.tallies().tolist() == [list(_straight_tallies(200000, config, "triangle", 1.0))]
            with pytest.raises(RuntimeError, match="tallied once"):
                run.tallies()
        # Nor is a split run tallied outside its block, where no child casts.
        with pytest.raises(RuntimeError, match="inside its with block"):
            SplitRun(200000, config, workers=2).tallies()

    def test_batch_runs_longer_than_a_block(self, monkeypatch, tmp_path):
        # Blocks of 256 casts and runs of 1003: each child runs one task, a
        # stretch of whole and cut runs, one of them from the first cast, and
        # this process none; the tasks tile the batch, which equals straight
        # runs.  One run at 2 workers is split between two children.
        monkeypatch.setattr(estimators, "_BLOCK", 256)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
        for runs, workers in [(3, 2), (7, 3), (1, 2)]:
            log = tmp_path / f"{runs}-{workers}"
            _log_tasks(monkeypatch, log)
            result = run_batch(runs, 1003, RngConfig(20, 0), workers=workers)
            tasks = _child_tasks(log)
            assert len({pid for pid, *_ in tasks}) == len(tasks) == workers
            assert _own_tasks(log) == []
            edge = 0
            for stream, start, casts in sorted(task[1:] for task in tasks):
                assert (stream * 1003 + start, start % 256) == (edge, 0)
                edge += casts
            assert edge == runs * 1003
            for k in range(runs):
                tally = run_triangle_trials(1003, RngConfig(20, k).stream())
                assert result.estimates[k] == estimate_pi_triangle(tally).pi_estimate

    @pytest.mark.parametrize("workers", [2, 3])
    def test_short_runs_go_whole_one_task_per_child(self, monkeypatch, tmp_path, workers):
        # 50 runs of 300 casts, shorter than a block, so every cut falls on a
        # run's first cast: each child tallies whole runs as one task, the
        # first child the first runs, and this process none.
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
        _log_tasks(monkeypatch, tmp_path / "tasks")
        result = run_batch(50, 300, RngConfig(22, 0), workers=workers)
        children = _child_tasks(tmp_path / "tasks")
        assert len({pid for pid, *_ in children}) == len(children) == workers
        assert _own_tasks(tmp_path / "tasks") == []
        next_run = 0
        for stream, start, casts in sorted(task[1:] for task in children):
            assert (stream, start, casts % 300) == (next_run, 0, 0)
            next_run += casts // 300
        assert next_run == 50
        assert result == run_batch(50, 300, RngConfig(22, 0), workers=1)

    def test_children_take_equal_shares_of_the_casts(self, monkeypatch, tmp_path):
        # 20 runs of 300001 casts at 2 workers: the cut falls halfway, on run
        # 10's first cast, so each of two children takes ten runs.
        log = tmp_path / "casts"

        def stand_in(task):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {task[3]}\n")
            return [(0, 0, 0)] * _rows(task)

        monkeypatch.setattr(estimators, "tally_casts", stand_in)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        with SplitRun(300001, RngConfig(1, 0), workers=2, runs=20) as run:
            run.tallies()
        shares = {}
        for pid, casts in (line.split() for line in log.read_text().splitlines()):
            shares[pid] = shares.get(pid, 0) + int(casts)
        assert sorted(shares.values()) == [10 * 300001, 10 * 300001]

    def test_a_long_split_run_gives_each_child_one_task(self, monkeypatch):
        # 1e10 casts at 4 workers on 3 CPUs: each stand-in task tallies
        # (1, its casts, 0), so the join counts tasks and casts.  Three children
        # get one task each, so what a child holds does not grow with the run.
        monkeypatch.setattr(estimators, "tally_casts", _count_task)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
        with SplitRun(10**10, RngConfig(1, 0), workers=4) as run:
            (tally,) = run.join()
        assert (tally.trials, tally.counts) == (10**10, (3, 10**10, 0))

    @settings(max_examples=300, deadline=None)
    @example(trials=10**6, runs=1, workers=4, cpus=2, method="triangle")
    @example(trials=10**6, runs=1, workers=100000, cpus=2, method="triangle")
    @given(
        trials=st.integers(1, 3 * 10**6) | st.sampled_from([7, 65536, 65537, 70003, 300001, 10**10]),
        runs=st.integers(1, 50),
        workers=st.integers(1, 4),
        cpus=st.integers(1, 4),
        method=st.sampled_from(["triangle", "needle"]),
    )
    def test_shares_cover_every_cast_once_in_balanced_block_aligned_pieces(self, trials, runs, workers, cpus, method):
        # Positions p in the runs laid end to end are the casts (p // trials,
        # p % trials): the shares follow each other end to end from 0 up to the
        # last run's last cast.
        block = estimators._BLOCK
        with mock.patch.object(estimators, "_usable_cpus", lambda: cpus):
            run = SplitRun(trials, RngConfig(1, 0), method, workers=workers, runs=runs)
        shares = run._shares
        edges = [0] + [stop for _, stop in shares]
        assert [start for start, _ in shares] == edges[:-1]
        assert edges[-1] == trials * runs
        assert all(start < stop and start % trials % block == 0 for start, stop in shares)
        assert len(shares) <= min(workers, cpus)
        sizes = [stop - start for start, stop in shares]
        assert max(sizes) - min(sizes) <= 2 * block
        if runs == 1 and trials <= block:
            assert len(shares) == 1

    def test_split_run_validation(self):
        for args, kwargs in [
            ((0, RngConfig(1, 0)), {}),
            ((10, RngConfig(1, 0)), {"runs": 0}),
            ((10, RngConfig(1, 0), "coin"), {}),
            ((10, RngConfig(1, 0), "needle"), {"ratio": 1.5}),
            ((10, RngConfig(1, 0)), {"workers": 0}),
        ]:
            with pytest.raises(ValueError):
                SplitRun(*args, **kwargs)
        with SplitRun(10, RngConfig(1, 0), runs=2) as run:
            assert run.join() == [
                run_triangle_trials(10, RngConfig(1, k).stream()) for k in (0, 1)
            ]

    @pytest.mark.parametrize("raised_by", ["join", "caller"])
    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_an_error_in_the_caller_stops_the_children(self, monkeypatch, error, raised_by):
        # Forty blocks at two workers: two shares of twenty blocks, ten
        # seconds of work for each of the two children.  The error comes at
        # once, in the caller's block before it reads, or while ``join()``
        # waits on the children's pipes.  It comes out, and every child is
        # killed and reaped at once.
        parent, trials = os.getpid(), 40 * estimators._BLOCK
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)

        def stand_in(task):
            if os.getpid() == parent:
                raise AssertionError("this process tallied a share")
            time.sleep(10)
            return [(0, 0, 0)]

        def read(fd, n):
            raise error

        monkeypatch.setattr(estimators, "tally_casts", stand_in)
        assert SplitRun(trials, RngConfig(1, 0), workers=2)._shares == [(0, trials // 2), (trials // 2, trials)]
        started = time.monotonic()
        with pytest.raises(error):
            with SplitRun(trials, RngConfig(1, 0), workers=2) as run:
                if raised_by == "caller":
                    raise error
                # Only this block reads through the stand-in; the children write and never read.
                with mock.patch.object(os, "read", read):
                    run.join()
        assert time.monotonic() - started < 5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestPackedRuns:
    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from(["triangle", "needle"]),
        seed=st.integers(0, (1 << 64) - 1),
        first=st.integers(0, (1 << 64) - 1),
        runs=st.integers(1, 6),
        # Blocks of 256 casts: runs that divide the block, that do not, that
        # exceed half a block and that straddle one or more blocks.
        n=st.sampled_from([1, 3, 64, 128, 129, 200, 255, 256, 257, 600]) | st.integers(1, 700),
        start_blocks=st.integers(0, 3),
        casts=st.integers(1, 4200),
    )
    def test_packed_tallies_equal_straight_runs(self, method, seed, first, runs, n, start_blocks, casts):
        # A task from a block boundary within the first run, through any cast of the last.
        first = min(first, (1 << 64) - runs)
        start = 256 * min(start_blocks, (n - 1) // 256)
        casts = 1 + (casts - 1) % (runs * n - start)
        with mock.patch.object(estimators, "_BLOCK", 256):
            packed = tally_casts((seed, first, start, casts, n, method, 0.5)).tolist()
        assert len(packed) == -(-(start + casts) // n)
        for i, row in enumerate(packed):
            lo, hi = max(start - i * n, 0), min(start + casts - i * n, n)
            config = RngConfig(seed, first + i)
            expected = np.subtract(
                _straight_tallies(hi, config, method, 0.5),
                _straight_tallies(lo, config, method, 0.5) if lo else 0,
            )
            assert tuple(row) == tuple(expected.tolist())

    def test_a_batch_of_short_runs_makes_a_kernel_call_per_block(self, monkeypatch):
        # 40 runs of 100 casts are 4000 casts: one block and one call, not one
        # call per run.  With blocks of 256 casts every call is a full block but
        # the last.
        sizes = []

        def counted(rotation, *args):
            sizes.append(len(rotation))
            return filtered_crossings(rotation, *args)

        monkeypatch.setattr(estimators, "filtered_crossings", counted)
        packed = run_batch(40, 100, RngConfig(23, 0), workers=1)
        assert len(sizes) <= math.ceil(4000 / estimators._BLOCK) + 1
        monkeypatch.setattr(estimators, "_BLOCK", 256)
        sizes.clear()
        assert run_batch(40, 100, RngConfig(23, 0), workers=1) == packed
        assert sizes == [256] * 15 + [160]


def _float64_counts(rotation, offset_x, offset_y, scale=1.0):
    """The general float64 counter on unit casts scaled up by ``scale``: side, offsets and spacing alike."""
    v = make_triangle((0.0, 0.0), scale, rotation)
    return crossings_per_cast(v, scale * offset_x, scale * offset_y, scale)


def _float64_rows(seed, streams, n, method):
    """Each stream's tallies of its first n casts, counted cast by cast on the float64 path (needle ratio 0.5)."""
    rows = []
    for k in streams:
        rng = RngConfig(seed, k).stream()
        if method == "triangle":
            count_x, count_y = _float64_counts(*cast_columns(rng.random(UNIFORMS_PER_CAST * n)))
            total = count_x + count_y
            rows.append((int(count_x.sum()), int(count_y.sum()), int((total * total).sum())))
        else:
            u = rng.random(UNIFORMS_PER_DROP * n).reshape(-1, UNIFORMS_PER_DROP)
            rows.append((int(np.count_nonzero(0.25 * np.sin(math.pi * u[:, 1]) >= 0.5 * u[:, 0])),))
    return rows


def _checked_kernel(rotation, offset_x, offset_y, out, scale=1.0):
    """``filtered_crossings``, with each cast's counts checked against the float64 path.

    The casts the filter does not flag near are checked again with the casts scaled up by ``scale``.
    """
    count_x, count_y, near = filtered_crossings(rotation, offset_x, offset_y, out)
    for factor, keep in ((1.0, slice(None)), (scale, ~near)):
        exact_x, exact_y = _float64_counts(rotation, offset_x, offset_y, factor)
        assert np.array_equal(count_x[keep], exact_x[keep]) and np.array_equal(count_y[keep], exact_y[keep])
    return count_x, count_y, near


class TestWorkspace:
    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(["triangle", "needle"]),
        # Back-to-back calls of blocks of 256 casts: runs of 1-700 casts, so
        # final blocks are short, packed and straddled, some checked scaled up.
        calls=st.lists(
            st.tuples(
                st.integers(0, (1 << 64) - 1), st.integers(1, 4), st.integers(1, 700), st.sampled_from([1.0, 3.7])
            ),
            min_size=2,
            max_size=4,
        ),
    )
    def test_back_to_back_calls_on_a_dirty_workspace(self, method, calls):
        made, workspace = [], estimators._workspace

        def dirty_workspace(block, uniforms):
            # Whatever a call reads before writing it would be this garbage.
            buffer, (scratch, near) = workspace(block, uniforms)
            for array, garbage in ((buffer, np.nan), (scratch, np.nan), (near, True)):
                array.fill(garbage)
            made.append(block)
            return buffer, (scratch, near)

        with mock.patch.object(estimators, "_BLOCK", 256), mock.patch.object(estimators, "_workspace", dirty_workspace):
            for seed, runs, n, scale in calls:
                made.clear()
                with mock.patch.object(estimators, "filtered_crossings", functools.partial(_checked_kernel, scale=scale)):
                    rows = [tuple(row) for row in tally_casts((seed, 0, 0, runs * n, n, method, 0.5)).tolist()]
                assert made == [min(256, runs * n)]
                assert rows == [_straight_tallies(n, RngConfig(seed, k), method, 0.5) for k in range(runs)]
                assert rows == _float64_rows(seed, range(runs), n, method)

    def test_threads_do_not_share_a_workspace(self):
        # Four threads, each counting its own streams in blocks of 256 casts;
        # numpy releases the GIL inside the kernel, so a workspace shared
        # between threads would mix their blocks and change the tallies.
        calls = [(k, method) for k in range(4) for method in ("triangle", "needle")]
        with mock.patch.object(estimators, "_BLOCK", 256):
            expected = [tally_casts((9, k, 0, 3 * 20_000, 20_000, method, 0.5)).tolist() for k, method in calls]
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(tally_casts, (9, k, 0, 3 * 20_000, 20_000, method, 0.5)) for k, method in calls]
                got = [future.result(timeout=60).tolist() for future in futures]
        assert got == expected

    @pytest.mark.parametrize("task", [
        (5, 0, 0, 20 * estimators._BLOCK, 20 * estimators._BLOCK, "triangle", 1.0),
        (5, 0, 0, 200 * 5000, 5000, "triangle", 1.0),
        (5, 0, 0, 4_000_000, 4_000_000, "needle", 0.5),
    ], ids=["one-run-of-20-blocks", "200-runs-of-5000", "needle-4e6"])
    def test_a_block_allocates_nothing_of_its_size_but_its_draw(self, monkeypatch, task):
        # tracemalloc sees numpy's data buffers.  The call's workspace is made
        # before tracing starts, and a warm-up call has made what a first call
        # makes once, so the call holds at most one whole-block draw at a time.
        uniforms = UNIFORMS_PER_CAST if task[5] == "triangle" else UNIFORMS_PER_DROP
        made = estimators._workspace(estimators._BLOCK, uniforms)
        sizes = []

        def prebuilt(*size):
            sizes.append(size)
            return made

        monkeypatch.setattr(estimators, "_workspace", prebuilt)
        tally_casts(task)
        tracemalloc.start()
        try:
            tally_casts(task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [(estimators._BLOCK, uniforms)] * 2
        assert peak <= uniforms * estimators._BLOCK * 8 + (1 << 18)


class TestSummarize:
    """``run_batch``'s summary of its estimates: mean, spread and 95% interval."""

    def test_fields_match_the_estimates(self):
        result = run_batch(50, 1000, RngConfig(16, 0))
        assert [f.name for f in dataclasses.fields(result)] == [
            "estimates", "histogram", "mean", "stddev", "standard_error", "ci_low", "ci_high"
        ]
        assert result.mean == pytest.approx(statistics.fmean(result.estimates), rel=1e-12)
        assert result.stddev == pytest.approx(statistics.stdev(result.estimates), rel=1e-12)
        assert result.standard_error == result.stddev / math.sqrt(50)
        assert (result.ci_low, result.ci_high) == (
            result.mean - 1.96 * result.standard_error, result.mean + 1.96 * result.standard_error
        )

    def test_single_run_has_no_spread(self):
        result = run_batch(1, 1000, RngConfig(16, 0))
        assert result.mean == result.estimates[0]
        assert result.stddev == result.standard_error == 0.0
        assert result.ci_low == result.ci_high == result.mean

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            run_batch(0, 1000, RngConfig(16, 0))

    def test_confidence_interval_coverage(self):
        # 100 scaled-down batches; the 95% CI should catch pi in >= 90
        covered = 0
        for i in range(100):
            result = run_batch(50, 2000, RngConfig(1000 + i, 0))
            covered += result.ci_low <= math.pi <= result.ci_high
        assert covered >= 90


class TestConvergenceScaling:
    def test_one_over_sqrt_n_stddev(self):
        narrow = run_batch(200, 10_000, RngConfig(20240810, 0))
        wide = run_batch(200, 40_000, RngConfig(20240811, 0))
        ratio = wide.stddev / narrow.stddev
        assert 0.4 <= ratio <= 0.6


class TestStandardErrorCalibration:
    @pytest.mark.parametrize("method, ratio", [("triangle", 1.0), ("needle", 0.5)])
    def test_predicted_error_matches_the_spread_of_runs(self, method, ratio):
        # 2000 runs of 5000 casts: the empirical variance of the per-run rates
        # over their mean predicted SE**2 is 1 to within its chi-square spread,
        # sqrt(2 / (R - 1)) ~ 0.032; four of those bound it.
        runs = 2000
        with SplitRun(5000, RngConfig(11, 0), method, ratio=ratio, workers=2, runs=runs) as split:
            rates = np.array([tally.rate() for tally in split.join()])
        calibration = rates[:, 0].var(ddof=1) / np.mean(rates[:, 1] ** 2)
        assert abs(calibration - 1.0) < 4 * math.sqrt(2 / (runs - 1)), f"variance ratio {calibration:.3f}"
