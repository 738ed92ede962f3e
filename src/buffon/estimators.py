"""Trial loops, one work unit split over a process pool, and cross-run statistics.

The triangle trial loop composes, per block of casts: draw (rotation,
offset_x, offset_y) with ``sampling.draw_casts``, build the triangles at the
origin with ``geometry.make_triangle`` and count grid-line crossings with
``geometry.crossings_per_cast``.  All three work elementwise, so a block of
casts and a single cast go through the same code, and tallies do not depend
on the block size.

Runs are split into work units.  ``tally_casts`` turns a unit, casts
``start .. start + n - 1`` of one stream with ``start`` a multiple of
``_BLOCK``, into integer tallies, drawing from a generator positioned at its
first cast (see ``sampling``).  Tallies of one stream sum exactly, so no
count, estimate or output byte depends on how a run is cut or on the worker
count.  Two schedulers map units over a process pool:

- ``SplitRun`` runs one long run (``estimate``, and the Monte Carlo leg of
  ``validate``, on stream 0): the calling process draws the head of the
  stream straight with the trial loop, rather than wait, while
  ``workers - 1`` pool processes tally the rest, unit by unit.
- ``run_batch`` runs run k on stream k: each run is cut into units of at
  most ``_BLOCK`` casts, and the units are mapped over ``workers`` pool
  processes a window at a time, so memory stays flat however many runs
  there are.

A run of one unit, or one worker, never starts a pool.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import signal
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, UnsupportedConfigurationError
from .geometry import crossings_per_cast, make_triangle
from .sampling import UNIFORMS_PER_DROP, RngConfig, draw_casts

# Casts per vectorized block.  With the one-cos/sin-pair triangle, 6e6 casts
# on a 2-core Xeon with numpy 2.4 took a median (quartiles) of 0.86 s
# (0.79-0.96) at 1 << 14, 0.79 s (0.75-0.94) at 1 << 15, 0.81 s (0.77-0.93)
# at 1 << 16 and 0.88 s (0.83-0.91) at 1 << 17, twelve runs each: no size
# wins beyond host noise.  Peak RSS grows with the block (38, 41, 45 and
# 53 MB in process), and 1 << 18 measured slower than 1 << 16 (1.60 s
# against 1.21 s with six trig calls per cast).
_BLOCK = 1 << 16
# Casts per pool task: the pool's share of a split run goes out in units of
# this many casts, and batch runs longer than a block in groups of at most
# this many, so a task takes tens of milliseconds and the workers finish
# close together.
_TASK_CASTS = 1 << 18
# Units in the pool at once.  Batches are mapped window by window, and a split
# run uses larger units where it would have more than this many, so memory
# stays flat however many casts there are.
_WINDOW_UNITS = 1 << 12


@dataclass(frozen=True)
class TrialAggregate:
    """Crossing totals over a block of triangle casts.

    ``total_sq_sum`` is the sum of squared per-cast crossing totals; it is
    tracked by the trial runner so the estimator can attach a delta-method
    standard error, and may be None for hand-built aggregates.
    """

    trials: int
    count_x_total: int
    count_y_total: int
    total_sq_sum: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.count_x_total < 0 or self.count_y_total < 0:
            raise ValueError("crossing totals cannot be negative")

    @property
    def intersections(self) -> int:
        return self.count_x_total + self.count_y_total

    @property
    def crossing_rate(self) -> float:
        """Mean crossings per cast."""
        return self.intersections / self.trials

    def crossing_rate_standard_error(self) -> float | None:
        """Standard error of the mean per-cast total; None without squared sums."""
        if self.total_sq_sum is None or self.trials < 2:
            return None
        mean_c = self.crossing_rate
        var_c = (self.total_sq_sum / self.trials - mean_c * mean_c) * (
            self.trials / (self.trials - 1)
        )
        return math.sqrt(max(var_c, 0.0) / self.trials)


@dataclass(frozen=True)
class NeedleAggregate:
    """Hit count over a block of needle drops at length ratio ``ratio``."""

    trials: int
    hits: int
    ratio: float

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.hits <= self.trials:
            raise ValueError("hits must lie in [0, trials]")
        if not 0 < self.ratio <= 1:
            raise ValueError(f"ratio must lie in (0, 1], got {self.ratio}")


@dataclass(frozen=True)
class EstimateSummary:
    """A pi estimate with its sample size and (when available) error bar.

    ``intersections`` holds the crossing total for the triangle method and
    the hit count for the needle baseline.
    """

    pi_estimate: float
    trials: int
    intersections: int
    standard_error: float | None


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    stddev: float
    standard_error: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class BatchResult:
    """Per-run estimates of one batch plus histogram and moments."""

    runs: int
    trials_per_run: int
    estimates: tuple[float, ...]
    mean: float
    stddev: float
    histogram: tuple[tuple[float, float, int], ...]


def _triangle_block(rng, m: int, spacing: float) -> tuple[int, int, int]:
    """Tally m casts; returns (count_x, count_y, sum of squared totals)."""
    rotation, offset_x, offset_y = draw_casts(rng, m, spacing)
    v = make_triangle((0.0, 0.0), spacing, rotation)  # side == spacing in this model
    count_x, count_y = crossings_per_cast(v, offset_x, offset_y, spacing)
    total = count_x + count_y
    return int(count_x.sum()), int(count_y.sum()), int(np.dot(total, total))


def run_triangle_trials(
    n: int, rng, side: float = 1.0, spacing: float = 1.0
) -> TrialAggregate:
    """Cast the triangle n times and tally grid-line crossings.

    The triangle is centered at the origin; each cast draws a rotation and
    the two grid offsets from ``rng`` (anything with the Generator
    ``random(size)`` interface).  Requires ``side == spacing``: the rate is
    ``12 * side / (pi * spacing)`` crossings per cast at any ratio, but the
    estimators here are scaled for the ratio 1 (12/pi) only.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if side != spacing:
        raise UnsupportedConfigurationError(
            f"triangle side ({side}) must equal grid spacing ({spacing})"
        )
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be a positive finite length, got {spacing}")
    count_x = count_y = sq_sum = 0
    remaining = n
    while remaining:
        m = min(_BLOCK, remaining)
        bx, by, bsq = _triangle_block(rng, m, spacing)
        count_x += bx
        count_y += by
        sq_sum += bsq
        remaining -= m
    return TrialAggregate(n, count_x, count_y, sq_sum)


def estimate_pi_triangle(agg: TrialAggregate) -> EstimateSummary:
    """pi ~= 12 * trials / crossings, with a delta-method standard error.

    The error bar uses the sample standard deviation of per-cast totals and
    is omitted (None) when the aggregate does not carry squared sums.
    """
    intersections = agg.intersections
    if intersections == 0:
        raise DegenerateSampleError(
            f"no crossings in {agg.trials} trials; cannot estimate pi"
        )
    pi_estimate = 12.0 * agg.trials / intersections
    standard_error = None
    se_rate = agg.crossing_rate_standard_error()
    if se_rate is not None:
        standard_error = pi_estimate * se_rate / agg.crossing_rate
    return EstimateSummary(pi_estimate, agg.trials, intersections, standard_error)


def run_needle_trials(n: int, rng, ratio: float = 1.0) -> NeedleAggregate:
    """Drop a needle of length ``ratio`` n times on unit-spaced lines.

    Per trial, in order: distance from needle center to the nearest line,
    uniform on [0, 1/2); needle angle against the lines, uniform on [0, pi).
    A drop hits iff ``(ratio/2) * sin(angle) >= distance``.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    half_len = ratio / 2.0
    hits = 0
    remaining = n
    while remaining:
        m = min(_BLOCK, remaining)
        u = rng.random(UNIFORMS_PER_DROP * m)
        u = np.asarray(u, dtype=np.float64).reshape(m, UNIFORMS_PER_DROP)
        dist = u[:, 0].copy()
        dist *= 0.5
        ang = u[:, 1].copy()
        ang *= math.pi
        hits += int((half_len * np.sin(ang) >= dist).sum())
        remaining -= m
    return NeedleAggregate(n, hits, ratio)


def estimate_pi_needle(agg: NeedleAggregate) -> EstimateSummary:
    """pi ~= 2 * ratio * trials / hits, with binomial error propagation."""
    if agg.hits == 0:
        raise DegenerateSampleError(f"no hits in {agg.trials} trials; cannot estimate pi")
    pi_estimate = 2.0 * agg.ratio * agg.trials / agg.hits
    p_hat = agg.hits / agg.trials
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / agg.trials)
    standard_error = pi_estimate * se_p / p_hat
    return EstimateSummary(pi_estimate, agg.trials, agg.hits, standard_error)


def _check_run(trials: int, method: str, ratio: float) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if method not in ("triangle", "needle"):
        raise ValueError(f"method must be 'triangle' or 'needle', got {method!r}")
    if method == "needle" and not 0 < ratio <= 1:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")


def _tallies(agg: TrialAggregate | NeedleAggregate) -> tuple[int, ...]:
    if isinstance(agg, TrialAggregate):
        return agg.count_x_total, agg.count_y_total, agg.total_sq_sum
    return (agg.hits,)


def _aggregate(
    trials: int, tallies: tuple[int, ...], method: str, ratio: float
) -> TrialAggregate | NeedleAggregate:
    if method == "triangle":
        return TrialAggregate(trials, *tallies)
    return NeedleAggregate(trials, tallies[0], ratio)


def tally_casts(unit: tuple[int, int, int, int, str, float]) -> tuple[int, ...]:
    """Integer tallies of one work unit ``(seed, stream_id, start_cast, n_casts, method, ratio)``.

    The unit covers casts ``start_cast .. start_cast + n_casts - 1`` of stream
    ``(seed, stream_id)``, which must start on a Philox counter boundary (see
    ``sampling``).  Returns ``(count_x, count_y, sq_sum)`` for the triangle and
    ``(hits,)`` for the needle.
    """
    seed, stream_id, start_cast, n_casts, method, ratio = unit
    config = RngConfig(seed, stream_id)
    if method == "triangle":
        return _tallies(run_triangle_trials(n_casts, config.stream(start_cast)))
    return _tallies(run_needle_trials(n_casts, config.stream(start_cast, UNIFORMS_PER_DROP), ratio))


# A pool worker's Ctrl-C state: an interrupt stops the unit that is running,
# and a unit that starts after it stops at once, so an interrupted pool stops
# however long its units are.  A worker waiting for work only notes the
# interrupt, so that the parent alone reports it.
_worker = {"busy": False, "interrupted": False}


def _on_sigint_in_worker(signum, frame) -> None:
    _worker["interrupted"] = True
    if _worker["busy"]:
        raise KeyboardInterrupt


def _init_worker() -> None:
    signal.signal(signal.SIGINT, _on_sigint_in_worker)


def _tally_in_worker(unit: tuple[int, int, int, int, str, float]) -> tuple[int, ...]:
    """``tally_casts`` in a pool worker; after Ctrl-C the KeyboardInterrupt is the result."""
    if _worker["interrupted"]:
        raise KeyboardInterrupt
    _worker["busy"] = True
    try:
        return tally_casts(unit)
    finally:
        _worker["busy"] = False


class SplitRun:
    """One run of ``trials`` casts on stream ``config``, split between this process and a pool.

    The calling process draws the first ``head`` casts, about a ``1/workers``
    share, straight from ``config.stream()`` with ``run_triangle_trials`` (or
    ``run_needle_trials``) and hands the aggregate to ``join``.  Meanwhile a
    pool of ``workers - 1`` processes tallies the rest of the stream in units
    of ``_TASK_CASTS`` casts, larger where that would make more than
    ``_WINDOW_UNITS`` units.  With one worker, or a run of at most one block,
    ``head`` is the whole run and no pool starts::

        with SplitRun(trials, config, workers=workers) as run:
            agg = run.join(run_triangle_trials(run.head, config.stream()))

    Leaving the block, on an error or Ctrl-C too, drops the queued units and
    waits only for the running ones.
    """

    def __init__(
        self,
        trials: int,
        config: RngConfig,
        method: str = "triangle",
        *,
        ratio: float = 1.0,
        workers: int = 1,
    ) -> None:
        _check_run(trials, method, ratio)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.trials, self.config, self.method, self.ratio = trials, config, method, ratio
        # This process's share, rounded to whole blocks so the pool's units
        # start on block boundaries.
        share = _BLOCK * max(1, (2 * trials + workers * _BLOCK) // (2 * workers * _BLOCK))
        self.head = trials if workers == 1 else min(trials, share)
        self._workers = workers - 1
        self._pool = None
        self._futures = []

    def __enter__(self) -> "SplitRun":
        tail = self.trials - self.head
        if tail:
            size = max(_TASK_CASTS, _BLOCK * -(-tail // (_WINDOW_UNITS * _BLOCK)))
            starts = range(self.head, self.trials, size)
            self._pool = ProcessPoolExecutor(
                max_workers=min(self._workers, len(starts)), initializer=_init_worker
            )
            try:
                seed, stream_id = self.config.seed, self.config.stream_id
                for start in starts:
                    unit = (seed, stream_id, start, min(size, self.trials - start), self.method, self.ratio)
                    self._futures.append(self._pool.submit(_tally_in_worker, unit))
            except BaseException:
                self._pool.shutdown(cancel_futures=True)
                raise
        return self

    def join(self, head: TrialAggregate | NeedleAggregate) -> TrialAggregate | NeedleAggregate:
        """The whole run's aggregate: ``head`` (this process's share) plus the pool's units."""
        if head.trials != self.head:
            raise ValueError(f"the head has {self.head} casts, got an aggregate of {head.trials}")
        tallies = _tallies(head)
        for future in self._futures:
            tallies = tuple(map(operator.add, tallies, future.result()))
        return _aggregate(self.trials, tallies, self.method, self.ratio)

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


def _run_streams(
    seed: int, streams: Sequence[int], trials: int, method: str, ratio: float, workers: int
) -> list[TrialAggregate] | list[NeedleAggregate]:
    """Aggregates of one run of ``trials`` casts on each of ``streams``, in order.

    Each run is cut into units of at most ``_BLOCK`` casts, and a run's
    integer tallies are summed as its units finish.  With more than one
    worker and more than one unit, units are mapped over a process pool; a
    run of one unit, or one worker, runs in this process.
    """
    _check_run(trials, method, ratio)
    units = (
        (seed, k, start, min(_BLOCK, trials - start), method, ratio)
        for k in streams
        for start in range(0, trials, _BLOCK)
    )
    totals = {k: (0, 0, 0) if method == "triangle" else (0,) for k in streams}
    n_units = len(streams) * -(-trials // _BLOCK)
    pool, tally = None, functools.partial(map, tally_casts)
    if workers > 1 and n_units > 1:
        # Four tasks per worker in each window; where runs span several
        # units, a task holds at most _TASK_CASTS casts.
        per_task = min(n_units, _WINDOW_UNITS) // (4 * workers)
        if trials > _BLOCK:
            per_task = min(per_task, _TASK_CASTS // _BLOCK)
        pool = ProcessPoolExecutor(max_workers=min(workers, n_units), initializer=_init_worker)
        tally = functools.partial(pool.map, _tally_in_worker, chunksize=max(1, per_task))
    try:
        while window := list(itertools.islice(units, _WINDOW_UNITS)):
            for unit, tallies in zip(window, tally(window)):
                totals[unit[1]] = tuple(map(operator.add, totals[unit[1]], tallies))
    finally:
        if pool is not None:
            # On an error or Ctrl-C, even one that comes while map is still
            # submitting, drop the queued tasks and wait only for the running ones.
            pool.shutdown(cancel_futures=True)
    return [_aggregate(trials, totals[k], method, ratio) for k in streams]


def run_batch(
    runs: int,
    trials: int,
    config: RngConfig,
    method: str = "triangle",
    *,
    ratio: float = 1.0,
    bins: int = 40,
    workers: int = 1,
) -> BatchResult:
    """R independent runs, run k on stream k; estimates, moments, histogram.

    Results are a pure function of (seed, runs, trials, method, ratio,
    bins): workers only controls parallelism, never values or ordering.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    estimate = estimate_pi_triangle if method == "triangle" else estimate_pi_needle
    estimates = []
    for k, agg in enumerate(_run_streams(config.seed, range(runs), trials, method, ratio, workers)):
        try:
            estimates.append(estimate(agg).pi_estimate)
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(f"run {k}: {exc}") from None
    estimates = tuple(estimates)
    stats = summarize(estimates)
    values = np.asarray(estimates)
    counts, edges = np.histogram(values, bins=bins, range=(float(values.min()), float(values.max())))
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    )
    return BatchResult(runs, trials, estimates, stats.mean, stats.stddev, histogram)


def summarize(estimates) -> SummaryStats:
    """Unbiased sample statistics with a normal 95% confidence interval.

    The stddev of a single value is reported as 0.0.
    """
    values = np.asarray(list(estimates), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarize an empty list of estimates")
    mean = float(values.mean())
    stddev = float(values.std(ddof=1)) if values.size > 1 else 0.0
    standard_error = stddev / math.sqrt(values.size)
    half_width = 1.96 * standard_error
    return SummaryStats(mean, stddev, standard_error, mean - half_width, mean + half_width)
