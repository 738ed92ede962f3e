"""Trial loops, batch runner and cross-run statistics.

The triangle trial loop composes, per block of casts: draw (rotation,
offset_x, offset_y) with ``sampling.draw_casts``, build the triangles at the
origin with ``geometry.make_triangle`` and count grid-line crossings with
``geometry.crossings_per_cast``.  All three work elementwise, so a block of
casts and a single cast go through the same code, and tallies do not depend
on the block size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, UnsupportedConfigurationError
from .geometry import crossings_per_cast, make_triangle
from .sampling import RngConfig, draw_casts

# Casts per vectorized block.  With the one-cos/sin-pair triangle, 6e6 casts
# on a 2-core Xeon with numpy 2.4 took a median (quartiles) of 0.86 s
# (0.79-0.96) at 1 << 14, 0.79 s (0.75-0.94) at 1 << 15, 0.81 s (0.77-0.93)
# at 1 << 16 and 0.88 s (0.83-0.91) at 1 << 17, twelve runs each: no size
# wins beyond host noise.  Peak RSS grows with the block (38, 41, 45 and
# 53 MB in process), and 1 << 18 measured slower than 1 << 16 (1.60 s
# against 1.21 s with six trig calls per cast).
_BLOCK = 1 << 16


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
        u = rng.random(2 * m)
        u = np.asarray(u, dtype=np.float64).reshape(m, 2)
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


def _run_one(args: tuple[int, int, int, str, float]) -> float:
    seed, stream_id, trials, method, ratio = args
    rng = RngConfig(seed, stream_id).stream()
    try:
        if method == "triangle":
            return estimate_pi_triangle(run_triangle_trials(trials, rng)).pi_estimate
        return estimate_pi_needle(run_needle_trials(trials, rng, ratio)).pi_estimate
    except DegenerateSampleError as exc:
        raise DegenerateSampleError(f"run {stream_id}: {exc}") from None


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if method not in ("triangle", "needle"):
        raise ValueError(f"method must be 'triangle' or 'needle', got {method!r}")
    tasks = [(config.seed, k, trials, method, ratio) for k in range(runs)]
    if workers > 1 and runs > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            estimates = tuple(pool.map(_run_one, tasks, chunksize=max(1, runs // (workers * 4))))
    else:
        estimates = tuple(map(_run_one, tasks))
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
