"""Trial loops, one scheduler that splits runs over a process pool, and cross-run statistics.

One trial loop, ``_tally_runs``, serves every caller.  It fills blocks of
``_BLOCK`` casts with consecutive pieces, whole short runs or stretches of
long ones, and counts each block with one kernel call:
``geometry.filtered_crossings`` builds the triangles in float32 and counts
the few casts within ``FILTER_GUARD`` of a line again through the float64
path, so every count equals that path's, and the needle's hits are decided
the same way.  ``np.add.reduceat`` splits the per-cast counts per run.
Counts are elementwise, so tallies do not depend on how casts share blocks.

The loop runs in one workspace per process (per thread), so a block
allocates nothing of its size but a piece that fills it: fresh block-sized
temporaries cost up to 11.5k page faults per 1e6 casts, against ~100 now.

Runs are split into pool tasks.  ``tally_casts`` turns a task, casts
``start .. start + n - 1`` of a range of streams with ``start`` a multiple of
``_BLOCK``, into integer tallies, one row per stream, drawing from one
generator re-keyed at each stream's first cast (see ``sampling``).  Tallies
of one stream sum exactly, so no count, estimate or output byte depends on
how runs are cut or packed, or on the worker count.  ``SplitRun`` is the one
scheduler: it maps pool tasks over a process pool and returns one row per
run, which a ``Tally`` carries to the estimators.

- ``estimate`` and the Monte Carlo leg of ``validate`` are a single run on
  stream 0: the calling process draws the head of the stream straight with
  the trial loop, rather than wait, while ``workers - 1`` pool processes
  tally the rest.
- ``run_batch`` runs run k on stream k, every run in the pool.  The number
  of tasks is bounded, so memory stays flat however many runs there are.

One worker, or a single run of at most one block, never starts a pool.
"""

from __future__ import annotations

import math
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError
from .geometry import FILTER_GUARD, filter_workspace, filtered_crossings
from .sampling import UNIFORMS_PER_CAST, UNIFORMS_PER_DROP, RngConfig, cast_columns

# Casts per vectorized block, and so per kernel call: short runs are packed
# into blocks of this size too.  With the float32 filter, 6e6 casts on a
# 2-core Xeon with numpy 2.4 took a median (quartiles) of 0.387 s
# (0.369-0.393) at 1 << 14, 0.353 s (0.345-0.368) at 1 << 15, 0.359 s
# (0.323-0.375) at 1 << 16 and 0.393 s (0.372-0.407) at 1 << 17, fourteen
# fresh processes each: no size wins beyond host noise.  Peak RSS grows with
# the block (37, 38, 40 and 44 MB in process).
_BLOCK = 1 << 16
# Casts per pool task along a run: a run longer than this is cut into slices
# of this many casts, so a task takes tens of milliseconds and the workers
# finish close together.  Shorter runs go whole, several to a task.
_TASK_CASTS = 1 << 18
# Most pool tasks in one run or batch.  Every task is submitted at once, so
# slices grow, and long runs share tasks, where there would be more than this
# many; memory stays flat however many casts there are.
_WINDOW_UNITS = 1 << 12
# The trial loop's workspace, one per thread (see ``_workspace``).
_local = threading.local()


@dataclass(frozen=True)
class Tally:
    """The integer counts of one run of ``trials`` casts.

    ``counts`` are ``(count_x, count_y, sq_sum)`` for the triangle, with
    ``sq_sum`` the sum of squared per-cast crossing totals, and ``(hits,)``
    for the needle of length ratio ``ratio``; a triangle tally's ratio is 1.
    """

    method: str
    trials: int
    counts: tuple[int, ...]
    ratio: float = 1.0

    def __post_init__(self) -> None:
        if (self.method, len(self.counts)) not in (("triangle", 3), ("needle", 1)):
            raise ValueError(f"a tally has 3 triangle counts or 1 needle count, got {self.method!r} {self.counts}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if min(self.counts) < 0:
            raise ValueError("counts cannot be negative")
        if self.method == "needle" and self.counts[0] > self.trials:
            raise ValueError("hits must lie in [0, trials]")
        if not 0 < self.ratio <= 1:
            raise ValueError(f"ratio must lie in (0, 1], got {self.ratio}")
        if self.method == "triangle" and self.ratio != 1:
            raise ValueError(f"a triangle tally has no length ratio, got {self.ratio}")

    @property
    def intersections(self) -> int:
        """The count pi is estimated from: crossings for the triangle, hits for the needle."""
        return self.counts[0] + self.counts[1] if self.method == "triangle" else self.counts[0]

    def named_counts(self) -> dict[str, int]:
        """The counts a report shows, by name: ``count_x`` and ``count_y``, or ``hits``."""
        if self.method == "triangle":
            return {"count_x": self.counts[0], "count_y": self.counts[1]}
        return {"hits": self.counts[0]}

    def rate(self) -> tuple[float, float | None]:
        """Mean crossings (or hits) per cast and its standard error, None for a single triangle cast.

        The triangle's error is the sample standard deviation of per-cast
        totals over sqrt(trials); the needle's is binomial.
        """
        n, mean = self.trials, self.intersections / self.trials
        if self.method == "needle":
            return mean, math.sqrt(mean * (1.0 - mean) / n)
        if n < 2:
            return mean, None
        var = (self.counts[2] / n - mean * mean) * (n / (n - 1))
        return mean, math.sqrt(max(var, 0.0) / n)


@dataclass(frozen=True)
class EstimateSummary:
    """A pi estimate and (when available) its standard error."""

    pi_estimate: float
    standard_error: float | None


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    stddev: float
    standard_error: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class BatchResult(SummaryStats):
    """Per-run estimates of one batch, their ``summarize`` statistics and a histogram."""

    runs: int
    trials_per_run: int
    estimates: tuple[float, ...]
    histogram: tuple[tuple[float, float, int], ...]


def _tally_runs(rng, n: int, method: str, *, spacing=1.0, ratio=1.0, runs=1, rekey=None) -> np.ndarray:
    """Integer tallies of ``runs`` runs of n casts each, packed back to back into blocks of ``_BLOCK`` casts.

    ``rng`` stands at run 0's first cast, and ``rekey(i)`` moves it to run i's
    first cast; a run that straddles two blocks goes on drawing from ``rng``.
    Returns an int64 array of one row per run: ``(count_x, count_y, sq_sum)``
    for the triangle, ``(hits,)`` for the needle.
    """
    triangle = method == "triangle"
    uniforms = UNIFORMS_PER_CAST if triangle else UNIFORMS_PER_DROP
    buffer, scratch = _workspace(_BLOCK)
    tallies = np.zeros((runs, 3 if triangle else 1), dtype=np.int64)
    run, left, remaining = 0, n, runs * n
    while remaining:
        m = min(_BLOCK, remaining)
        starts, filled = [], 0
        while filled < m:
            if not left:
                run, left = run + 1, n
                rekey(run)
            take = min(left, m - filled)
            starts.append(filled)
            # A piece that fills the block is drawn with ``random(size)``, all a
            # Generator stand-in has; shorter ones go straight into the buffer.
            if take == m:
                u = rng.random(uniforms * m)
            else:
                u = buffer[: uniforms * m]
                rng.random(out=u[uniforms * filled : uniforms * (filled + take)])
            filled += take
            left -= take
        remaining -= m
        # The block holds pieces of the last len(starts) runs up to ``run``.
        tallies[run + 1 - len(starts) : run + 1] += _block_tallies(u, starts, triangle, spacing, ratio, scratch)
        del u  # before the next block's draw, so that no two draws are held at once
    return tallies


def _workspace(block: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """This thread's uniform buffer and ``filter_workspace`` for blocks of ``block`` casts, made on first use.

    Per thread, not per process, so that concurrent calls cannot write into each other's blocks.
    """
    if getattr(_local, "block", None) != block:
        _local.block, _local.workspace = block, (np.empty(UNIFORMS_PER_CAST * block), filter_workspace(block))
    return _local.workspace


def _block_tallies(u, starts, triangle: bool, spacing: float, ratio: float, scratch) -> np.ndarray:
    """Per-run int64 tallies of one block drawn as the uniforms ``u``, run i's casts from ``starts[i]``.

    ``u`` is overwritten, and the block's per-cast arrays are written into
    ``scratch``, a ``filter_workspace``.
    """
    if triangle:
        count_x, count_y, _ = filtered_crossings(*cast_columns(u, spacing), spacing, scratch)
        sums = [np.add.reduceat(count_x, starts), np.add.reduceat(count_y, starts)]
        # count_x is summed, so its row takes the squared totals.  (Not np.dot:
        # a float dot goes to BLAS, whose threads spin against the pool's
        # other processes.)
        total = np.add(count_x, count_y, out=count_x)
        np.square(total, out=total)
        sums.append(np.add.reduceat(total, starts))
    else:
        u, half_len = np.reshape(u, (-1, UNIFORMS_PER_DROP)), ratio / 2.0
        (gap, other, hit), near = scratch[0][:3, : len(u)], scratch[1][: len(u)]
        # Decide ``half_len * sin(angle) - distance`` in float32: it is off by
        # under 3e-7 (rounding the angle and the distance, a float32 sin and
        # two operations), so only a gap within FILTER_GUARD can have the
        # wrong sign, and those drops are decided again in float64.
        np.multiply(u[:, 1], math.pi, out=gap, casting="same_kind")
        np.sin(gap, out=gap)
        gap *= half_len
        gap -= np.multiply(u[:, 0], 0.5, out=other, casting="same_kind")
        np.greater_equal(gap, 0, out=hit)
        idx = np.flatnonzero(np.less(np.abs(gap, out=other), FILTER_GUARD, out=near))
        hit[idx] = half_len * np.sin(math.pi * u[idx, 1]) >= 0.5 * u[idx, 0]
        sums = [np.add.reduceat(hit, starts)]
    # The counts are float32, summed in float32: they are integers of at most
    # 64 (a squared total of 8), so a block's sums stay within 64 * _BLOCK =
    # 2**22, below 2**24, and are exact.
    return np.stack(sums, axis=1).astype(np.int64)


def run_triangle_trials(n: int, rng, spacing: float = 1.0) -> Tally:
    """Cast a triangle of side ``spacing`` n times on a grid of that spacing and tally crossings.

    The triangle is centered at the origin; each cast draws a rotation and
    the two grid offsets from ``rng`` (anything with the Generator
    ``random(size)`` interface).  The expected count is 12/pi per cast, the
    rate ``estimate_pi_triangle`` inverts.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be a positive finite length, got {spacing}")
    return Tally("triangle", n, tuple(_tally_runs(rng, n, "triangle", spacing=spacing)[0].tolist()))


def estimate_pi_triangle(tally: Tally) -> EstimateSummary:
    """pi ~= 12 * trials / crossings, with a delta-method standard error (None for a single cast)."""
    return _summary(tally, "triangle")


def run_needle_trials(n: int, rng, ratio: float = 1.0) -> Tally:
    """Drop a needle of length ``ratio`` n times on unit-spaced lines.

    Per trial, in order: distance from needle center to the nearest line,
    uniform on [0, 1/2); needle angle against the lines, uniform on [0, pi).
    A drop hits iff ``(ratio/2) * sin(angle) >= distance`` in float64; a
    float32 filter decides all but the drops near that threshold.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    return Tally("needle", n, tuple(_tally_runs(rng, n, "needle", ratio=ratio)[0].tolist()), ratio)


def estimate_pi_needle(tally: Tally) -> EstimateSummary:
    """pi ~= 2 * ratio * trials / hits, with binomial error propagation."""
    return _summary(tally, "needle")


def _summary(tally: Tally, method: str) -> EstimateSummary:
    """The pi estimate of a ``method`` tally, its error propagated from ``Tally.rate``."""
    if tally.method != method:
        raise ValueError(f"expected a {method} tally, got a {tally.method} one")
    pi_estimate = _pi_estimates(tally.trials, tally.intersections, method, tally.ratio)
    rate, se_rate = tally.rate()
    standard_error = None if se_rate is None else pi_estimate * se_rate / rate
    return EstimateSummary(pi_estimate, standard_error)


def _pi_estimates(trials: int, counts, method: str, ratio: float = 1.0):
    """pi from the crossings or hits ``counts`` (an int, or an array of runs) of ``trials`` casts each.

    A zero count raises DegenerateSampleError, naming the first such run of an array.
    """
    zero = np.flatnonzero(np.equal(counts, 0))
    if zero.size:
        run = f"run {zero[0]}: " if np.ndim(counts) else ""
        noun = "crossings" if method == "triangle" else "hits"
        raise DegenerateSampleError(f"{run}no {noun} in {trials} trials; cannot estimate pi")
    return (12.0 * trials if method == "triangle" else 2.0 * ratio * trials) / counts


def tally_casts(task: tuple[int, range, int, int, str, float]) -> np.ndarray:
    """Integer tallies of a task ``(seed, streams, start_cast, n_casts, method, ratio)``, one row per stream.

    The task covers casts ``start_cast .. start_cast + n_casts - 1`` of each
    stream ``(seed, k)`` for k in ``streams``, which must start on a Philox
    counter boundary (see ``sampling``).  One generator is re-keyed from
    stream to stream, so short runs share blocks.  Rows are ``(count_x,
    count_y, sq_sum)`` for the triangle and ``(hits,)`` for the needle.
    """
    seed, streams, start_cast, n_casts, method, ratio = task
    uniforms = UNIFORMS_PER_CAST if method == "triangle" else UNIFORMS_PER_DROP
    rng = RngConfig(seed, streams[0]).stream(start_cast, uniforms)
    return _tally_runs(
        rng, n_casts, method, ratio=ratio, runs=len(streams),
        rekey=lambda i: RngConfig(seed, streams[i]).rekey(rng.bit_generator, start_cast, uniforms),
    )


# A pool worker's Ctrl-C state: an interrupt stops the task that is running,
# and a task that starts after it stops at once, so an interrupted pool stops
# however long its tasks are.  A worker waiting for work only notes the
# interrupt, so that the parent alone reports it.
_worker = {"busy": False, "interrupted": False}


def _on_sigint_in_worker(signum, frame) -> None:
    _worker["interrupted"] = True
    if _worker["busy"]:
        raise KeyboardInterrupt


def _init_worker() -> None:
    signal.signal(signal.SIGINT, _on_sigint_in_worker)


def _tally_in_worker(task: tuple[int, range, int, int, str, float]) -> np.ndarray:
    """The ``tally_casts`` of a task ``(seed, streams, start_cast, n_casts, method, ratio)``.

    Runs in a pool worker; after Ctrl-C the KeyboardInterrupt is the result.
    """
    if _worker["interrupted"]:
        raise KeyboardInterrupt
    _worker["busy"] = True
    try:
        return tally_casts(task)
    finally:
        _worker["busy"] = False


class SplitRun:
    """``runs`` runs of ``trials`` casts, run k on stream ``config.stream_id + k``, split over a pool.

    A pool task is a range of casts on a range of streams.  Runs of at most
    ``_TASK_CASTS`` casts go whole, grouped about four tasks per worker; longer
    runs are cut into slices of ``_TASK_CASTS`` casts, grown so there are at
    most ``_WINDOW_UNITS`` tasks.  Every task is submitted on entering the block.

    Only a single run gives this process a head, its first ``head`` casts
    (about a ``1/workers`` share), while ``workers - 1`` pool processes tally
    the rest.  ``join()`` tallies the head itself; a caller that draws it from
    ``config.stream()`` with the trial loop hands its tally to ``join``.  At
    one worker every run is all head, as is a single run of at most one
    block, and no pool starts::

        with SplitRun(trials, config, workers=workers) as run:
            (tally,) = run.join()

    Leaving the block, on an error or Ctrl-C too, drops the queued tasks and
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
        runs: int = 1,
    ) -> None:
        if trials < 1 or runs < 1:
            raise ValueError(f"trials and runs must be >= 1, got {trials} and {runs}")
        if method not in ("triangle", "needle"):
            raise ValueError(f"method must be 'triangle' or 'needle', got {method!r}")
        if method == "needle" and not 0 < ratio <= 1:
            raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # The triangle has no length ratio.
        self.ratio = ratio if method == "needle" else 1.0
        self.trials, self.runs, self.config, self.method = trials, runs, config, method
        if workers == 1:
            self.head = trials
        elif runs == 1:
            # Rounded to whole blocks, so the pool's tasks start on block boundaries.
            self.head = min(trials, _BLOCK * max(1, (2 * trials + workers * _BLOCK) // (2 * workers * _BLOCK)))
        else:
            self.head = 0
        self._workers = workers - 1 if runs == 1 else workers
        self._pool = None
        self._tasks = []

    def __enter__(self) -> "SplitRun":
        span = self.trials - self.head
        if span:
            first, runs = self.config.stream_id, self.runs
            if span <= _TASK_CASTS:
                group, size = -(-runs // min(4 * self._workers, _WINDOW_UNITS)), span
            else:
                group = -(-runs // _WINDOW_UNITS)
                slices = _WINDOW_UNITS // -(-runs // group)
                size = max(_TASK_CASTS, _BLOCK * -(-span // (slices * _BLOCK)))
            rows = [range(k, min(k + group, first + runs)) for k in range(first, first + runs, group)]
            starts = range(self.head, self.trials, size)
            self._pool = ProcessPoolExecutor(
                max_workers=min(self._workers, len(rows) * len(starts)), initializer=_init_worker
            )
            try:
                for streams in rows:
                    for start in starts:
                        n = min(size, self.trials - start)
                        task = (self.config.seed, streams, start, n, self.method, self.ratio)
                        self._tasks.append((streams, self._pool.submit(_tally_in_worker, task)))
            except BaseException:
                self._pool.shutdown(cancel_futures=True)
                raise
        return self

    def tallies(self, head: Tally | None = None) -> np.ndarray:
        """Each run's ``tally_casts`` row, in stream order: this process's share plus the pool's tasks.

        ``head`` is this process's share of a single run, drawn by the caller.
        """
        seed, first = self.config.seed, self.config.stream_id
        totals = np.zeros((self.runs, 3 if self.method == "triangle" else 1), dtype=np.int64)
        if head is None:
            if self.head:
                totals += tally_casts((seed, range(first, first + self.runs), 0, self.head, self.method, self.ratio))
        elif self.runs != 1 or (head.method, head.trials, head.ratio) != (self.method, self.head, self.ratio):
            raise ValueError(
                f"join takes the head of a single run, {self.head} casts of the {self.method}; "
                f"got {head.trials} of the {head.method} with runs = {self.runs}"
            )
        else:
            totals[0] = head.counts
        for streams, future in self._tasks:
            totals[streams.start - first : streams.stop - first] += future.result()
        return totals

    def join(self, head: Tally | None = None) -> list[Tally]:
        """Each run's ``Tally``, in stream order, from its ``tallies``."""
        return [Tally(self.method, self.trials, tuple(t), self.ratio) for t in self.tallies(head).tolist()]

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


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
    """R independent runs, run k on stream ``config.stream_id + k``; estimates, statistics, histogram.

    Results are a pure function of (seed, stream, runs, trials, method, ratio,
    bins): workers only controls parallelism, never values or ordering.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    with SplitRun(trials, config, method, ratio=ratio, workers=workers, runs=runs) as batch:
        tallies = batch.tallies()
    intersections = tallies[:, 0] + tallies[:, 1] if method == "triangle" else tallies[:, 0]
    values = _pi_estimates(trials, intersections, method, ratio)
    counts, edges = np.histogram(values, bins=bins, range=(float(values.min()), float(values.max())))
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    )
    return BatchResult(
        **vars(summarize(values)), runs=runs, trials_per_run=trials, estimates=tuple(values.tolist()), histogram=histogram
    )


def summarize(estimates) -> SummaryStats:
    """Unbiased sample statistics with a normal 95% confidence interval.

    The stddev of a single value is reported as 0.0.
    """
    values = np.asarray(estimates, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarize an empty list of estimates")
    mean = float(values.mean())
    stddev = float(values.std(ddof=1)) if values.size > 1 else 0.0
    standard_error = stddev / math.sqrt(values.size)
    half_width = 1.96 * standard_error
    return SummaryStats(mean, stddev, standard_error, mean - half_width, mean + half_width)
