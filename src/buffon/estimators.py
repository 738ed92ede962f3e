"""Trial loops, one scheduler that splits runs over forked worker processes, and cross-run statistics.

One trial loop, ``_tally_runs``, serves every caller.  It fills blocks of
``_BLOCK`` casts with consecutive pieces, whole short runs or stretches of
long ones, and counts each block with one kernel call:
``geometry.filtered_crossings`` builds the triangles in float32 and counts
the few casts near a line again through the float64 path, so every count
equals that path's, and ``geometry.filtered_hits`` decides the needle's
hits the same way.  ``np.add.reduceat`` splits the per-cast counts per run.
Counts are elementwise, so tallies do not depend on how casts share blocks.

The loop runs in one workspace per call, sized to it, so a block allocates
nothing of its size but a piece that fills it: fresh block-sized
temporaries cost up to 11.5k page faults per 1e6 casts, against ~100 now.

``tally_casts`` tallies a task, consecutive casts of runs laid end to end
from a Philox counter boundary, as one int64 row per stream, re-keying one
generator at each later stream's first cast (see ``sampling``).  Tallies of
one stream sum exactly, so no output byte depends on how runs are cut or
packed, or on the worker count.  ``SplitRun``, the one scheduler, cuts the
casts into one contiguous share per casting process, at most one per usable
CPU.  A child forked with ``os.fork`` tallies each share and returns its
rows over a pipe, with no executor, queue or pickling to start or import,
while the calling process only reads the pipes.  It casts only a single
share, or the first share of a single run that its caller draws itself.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass

import numpy as np

from .geometry import filter_workspace, filtered_crossings, filtered_hits
from .sampling import UNIFORMS_PER_CAST, UNIFORMS_PER_DROP, RngConfig, cast_columns, key_philox

# Casts per vectorized block, and so per kernel call: short runs are packed
# into blocks of this size too.  A block's working set is 53 B per cast, its
# float64 uniforms (24 B) and the filter's rows and mask (29 B): 1.66 MiB at
# 1 << 15, which fits a 2 MiB per-core L2 cache, and 3.3 MiB at 1 << 16,
# which does not.  On a 2-core Xeon with 2 MiB of L2 per core and numpy 2.4,
# ``tally_casts`` of 3e6 casts took, in ns/cast (the least of 15 rounds, sizes
# interleaved; one run / runs of 5000 / the needle), 38.5 / 40.4 / 17.5 at
# 1 << 13, 32.8 / 36.7 / 16.9 at 1 << 14, 31.5 / 34.6 / 15.6 at 1 << 15,
# 32.7 / 36.9 / 15.5 at 1 << 16 and 36.3 / 39.8 / 16.1 at 1 << 17: smaller
# blocks pay more calls, larger ones miss L2.  Over the interpreter's and
# numpy's fixed share, the peak RSS of ``estimate --trials 6000000`` grows
# with the block: 32.2, 32.4, 33.4, 35.2 and 38.4 MiB (median of 6 runs,
# with OpenSSL kept out as ``cli.app`` does).
_BLOCK = 1 << 15


class DegenerateSampleError(RuntimeError):
    """Raised when a sample contains no crossings/hits, so the reciprocal
    estimate would divide by zero."""


class WorkerDiedError(RuntimeError):
    """Raised when a worker process dies, or exits without all of its tally rows."""


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
class BatchResult:
    """Per-run estimates of one batch, a histogram of them, and their mean, spread and 95% interval.

    ``stddev`` is the sample standard deviation (0.0 for a single run), and
    the interval is the normal ``mean -/+ 1.96 * standard_error``.
    """

    estimates: tuple[float, ...]
    histogram: tuple[tuple[float, float, int], ...]
    mean: float
    stddev: float
    standard_error: float
    ci_low: float
    ci_high: float


def _tally_runs(rng, n: int, method: str, *, ratio=1.0, start=0, casts=None, rekey=None) -> np.ndarray:
    """Integer tallies of ``casts`` (default n) casts of runs of n casts laid end to end, from run 0's cast ``start``.

    The casts are packed back to back into blocks of ``_BLOCK`` casts.
    ``rng`` stands at run 0's cast ``start``, and ``rekey(i)`` moves it to run
    i's first cast; a run that straddles two blocks goes on drawing from
    ``rng``.  Returns an int64 array of one row per run touched:
    ``(count_x, count_y, sq_sum)`` for the triangle, ``(hits,)`` for the needle.
    """
    triangle = method == "triangle"
    uniforms = UNIFORMS_PER_CAST if triangle else UNIFORMS_PER_DROP
    remaining = n if casts is None else casts
    buffer, scratch = _workspace(min(_BLOCK, remaining), uniforms)
    tallies = np.zeros((-(-(start + remaining) // n), 3 if triangle else 1), dtype=np.int64)
    run, left = 0, n - start
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
        tallies[run + 1 - len(starts) : run + 1] += _block_tallies(u, starts, triangle, ratio, scratch)
        del u  # before the next block's draw, so that no two draws are held at once
    return tallies


def _workspace(block: int, uniforms: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A float64 uniform buffer and a ``filter_workspace`` for blocks of up to ``block`` casts of ``uniforms`` each."""
    return np.empty(uniforms * block), filter_workspace(block)


def _block_tallies(u, starts, triangle: bool, ratio: float, scratch) -> np.ndarray:
    """Per-run int64 tallies of one block drawn as the uniforms ``u``, run i's casts from ``starts[i]``.

    ``u`` is overwritten, and the block's per-cast arrays are written into
    ``scratch``, a ``filter_workspace``.
    """
    if triangle:
        count_x, count_y, _ = filtered_crossings(*cast_columns(u), scratch)
        sums = [np.add.reduceat(count_x, starts), np.add.reduceat(count_y, starts)]
        # count_x is summed, so its row takes the squared totals.  (Not np.dot:
        # a float dot goes to BLAS, whose threads spin against the other
        # casting processes.)
        total = np.add(count_x, count_y, out=count_x)
        np.square(total, out=total)
        sums.append(np.add.reduceat(total, starts))
    else:
        u = np.reshape(u, (-1, UNIFORMS_PER_DROP))
        hit, _, _ = filtered_hits(u[:, 0], u[:, 1], ratio, scratch)
        sums = [np.add.reduceat(hit, starts)]
    # The counts are float32, summed in float32: they are integers of at most
    # 64 (a squared total of 8), so a block's sums stay within 64 * _BLOCK =
    # 2**21, below 2**24, and are exact.
    return np.stack(sums, axis=1).astype(np.int64)


def run_triangle_trials(n: int, rng) -> Tally:
    """Cast a unit triangle n times on the unit grid and tally crossings.

    The triangle is centered at the origin; each cast draws a rotation and
    the two grid offsets from ``rng`` (anything with the Generator
    ``random(size)`` interface).  The expected count is 12/pi per cast, the
    rate ``estimate_pi_triangle`` inverts.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    return Tally("triangle", n, tuple(_tally_runs(rng, n, "triangle")[0].tolist()))


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


def tally_casts(task: tuple[int, int, int, int, int, str, float]) -> np.ndarray:
    """Integer tallies of a task ``(seed, stream, start_cast, casts, trials, method, ratio)``, one row per stream.

    Runs of ``trials`` casts, run i on stream ``(seed, stream + i)``, are laid
    end to end, and the task covers ``casts`` consecutive casts of them from
    cast ``start_cast`` of the first, which must start on a Philox counter
    boundary (see ``sampling``).  One generator is re-keyed from stream to
    stream, so short runs share blocks.  Rows are ``(count_x, count_y,
    sq_sum)`` for the triangle and ``(hits,)`` for the needle.
    """
    seed, stream, start_cast, casts, trials, method, ratio = task
    uniforms = UNIFORMS_PER_CAST if method == "triangle" else UNIFORMS_PER_DROP
    # Later runs are keyed unchecked, so check the last stream the task reaches.
    RngConfig(seed, stream + (start_cast + casts - 1) // trials)
    rng = RngConfig(seed, stream).stream(start_cast * uniforms)
    return _tally_runs(
        rng, trials, method, ratio=ratio, start=start_cast, casts=casts,
        rekey=lambda i: key_philox(rng.bit_generator, seed, stream + i),
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on; the CPU count where affinity is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class SplitRun:
    """``runs`` runs of ``trials`` casts, run k on stream ``config.stream_id + k``, split over processes.

    The runs are laid end to end in stream order and cut evenly into one
    contiguous share per casting process, at most ``workers`` and one per
    usable CPU (one without ``os.fork``).  Each cut is rounded up to a
    ``_BLOCK`` boundary within its run, so shares differ by less than two
    blocks, and empty shares are dropped.  The first share is the casts
    before ``head``: all of them at one worker, or for a single run of at
    most one block.  Entering the block forks one child per other share;
    each tallies its share as one ``tally_casts`` task and writes the rows
    to its own pipe.  Leaving it, on an error or Ctrl-C too, kills and reaps
    them.

    ``join()`` forks one more child for the first share when there are
    others, and then only reads pipes: this process never fills a block, so
    it maps no workspace and imports no ``numpy.random``.  A single share it
    tallies itself.  A caller of a single run may instead draw its first
    ``head`` casts from ``config.stream()`` with the trial loop and hand
    their tally to ``join``::

        with SplitRun(trials, config, workers=workers) as run:
            (tally,) = run.join()
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
        processes = min(workers, _usable_cpus()) if hasattr(os, "fork") else 1
        end = trials * runs
        cuts = [0]
        for k in range(1, processes):
            # Up to a block boundary within the run, so that every share starts on one.
            run, cast = divmod(k * end // processes, trials)
            cuts.append(run * trials + min(trials, -(-cast // _BLOCK) * _BLOCK))
        cuts.append(end)
        # ``(start, stop)`` in the runs laid end to end; the first share ends at ``head``.
        self._shares = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
        self.head = self._shares[0][1]
        self._children = {}  # the pid and the runs of each child not yet reaped, by its pipe's read end

    def __enter__(self) -> "SplitRun":
        try:
            for start, stop in self._shares[1:]:
                self._fork(start, stop)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _fork(self, start: int, stop: int) -> None:
        """Fork a child that tallies the casts ``[start, stop)`` as one ``tally_casts`` task into its own pipe."""
        run, cast = divmod(start, self.trials)
        task = (self.config.seed, self.config.stream_id + run, cast, stop - start, self.trials, self.method, self.ratio)
        read, write = os.pipe()
        try:
            pid = os.fork() or self._child(read, write, task)  # a child never returns
        except BaseException:
            os.close(read)
            raise
        finally:
            os.close(write)
        self._children[read] = pid, slice(run, -(-stop // self.trials))

    def _child(self, read: int, write: int, task: tuple) -> None:
        """In a forked child: tally ``task``, write its int64 rows to ``write``, and ``os._exit``."""
        try:
            # Ctrl-C ends a child at once, unless the command was started ignoring it.
            if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
                signal.signal(signal.SIGINT, signal.SIG_DFL)
            for fd in (read, *self._children):
                os.close(fd)
            rows = np.asarray(tally_casts(task), dtype=np.int64)
            with open(write, "wb") as out:
                out.write(rows.tobytes())
            os._exit(0)
        finally:
            os._exit(1)

    def tallies(self, head: Tally | None = None) -> np.ndarray:
        """Each run's ``tally_casts`` row, in stream order, summed over the shares.

        ``head`` is the first share of a single run, drawn by the caller;
        without it, one more child tallies that share, or this process when
        it is the only one.  A child that dies, or exits without all of its
        rows, raises WorkerDiedError.
        """
        totals = np.zeros((self.runs, 3 if self.method == "triangle" else 1), dtype=np.int64)
        if head is None and self._children:
            self._fork(*self._shares[0])
        elif head is None:
            seed, first = self.config.seed, self.config.stream_id
            totals[:] = tally_casts((seed, first, 0, self.head, self.trials, self.method, self.ratio))
        elif self.runs != 1 or (head.method, head.trials, head.ratio) != (self.method, self.head, self.ratio):
            raise ValueError(
                f"join takes the head of a single run, {self.head} casts of the {self.method}; "
                f"got {head.trials} of the {head.method} with runs = {self.runs}"
            )
        else:
            totals[0] = head.counts
        # A child writes once its task is done, so reading the pipes in turn holds none of them back.
        for fd, (pid, runs) in list(self._children.items()):
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self._children[fd]
            os.close(fd)
            rows = totals[runs]
            if status or len(data) != rows.nbytes:
                how = f"exited with code {status}" if status >= 0 else f"was killed by signal {-status}"
                got = len(data) // totals[0].nbytes
                raise WorkerDiedError(f"a worker process died: pid {pid} {how}, with {got} of {len(rows)} tally rows")
            rows += np.frombuffer(data, dtype=np.int64).reshape(rows.shape)
        return totals

    def join(self, head: Tally | None = None) -> list[Tally]:
        """Each run's ``Tally``, in stream order, from its ``tallies``."""
        return [Tally(self.method, self.trials, tuple(t), self.ratio) for t in self.tallies(head).tolist()]

    def __exit__(self, *exc_info) -> None:
        for fd, (pid, _) in self._children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        self._children.clear()


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
    """R independent runs, run k on stream ``config.stream_id + k``; their estimates, histogram and statistics.

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
    mean = float(values.mean())
    stddev = float(values.std(ddof=1)) if values.size > 1 else 0.0
    standard_error = stddev / math.sqrt(values.size)
    half_width = 1.96 * standard_error
    return BatchResult(
        tuple(values.tolist()), histogram, mean, stddev, standard_error, mean - half_width, mean + half_width
    )
