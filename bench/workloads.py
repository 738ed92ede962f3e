"""The benchmark's workloads: the ``buffon`` command each one runs, and its checks.

Each workload is one CLI command whose outputs can be checked without
golden bytes: estimates must lie within 5 standard errors of pi, the batch
CSV must hold one row per run, and ``validate`` must print PASS.  The same
command with the same seed must also give byte-identical outputs, which the
harness checks across repeats.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("triangle", "needle", "batch", "validate")

# Worker count for the batch workload: the CPUs this process may run on,
# which is what `nproc` reports.
NPROC = len(os.sched_getaffinity(0))

# Full-scale sizes, chosen so one command takes about two seconds on a
# 2-core Xeon and a 55-second run holds twenty or more repeats.
TRIANGLE_TRIALS = 6_000_000
NEEDLE_TRIALS = 40_000_000
# Many short runs: the batch's standard error comes from the spread between
# runs, and with R runs its relative noise is about 1/sqrt(2R).  2000 runs
# keep the seed-to-seed spread of s_to_se_1e-4 (which goes as SE^2) near 3%.
BATCH_RUNS = 2000
BATCH_TRIALS = 5_000
VALIDATE_RESOLUTION = (720, 400)
# The smallest lattice whose quadrature still passes validate's 1e-3 gate.
MIN_VALIDATE_RESOLUTION = (180, 100)


class CheckFailed(Exception):
    """A command's output failed a correctness check."""


# Errors a broken command or output can raise inside a check.
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError)


class Checks:
    """Counts checked operations and keeps the message of each that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def check(self, what: str):
        self.attempted += 1
        try:
            yield
        except CHECK_ERRORS as exc:
            self.failures.append(f"{what}: {exc}")


def digest(stdout: str, paths) -> str:
    """Hash of a command's stdout and the files it wrote."""
    h = hashlib.sha256(stdout.encode())
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    """One ``buffon`` command and how to check what it printed and wrote."""

    name: str
    args: list[str]  # arguments after ``buffon``
    casts: int  # casts one command performs; lattice points for validate
    outputs: tuple[Path, ...]  # files the command writes
    # (stdout, workload) -> the run's error on pi: its standard error for
    # the Monte Carlo commands, the quadrature's error for validate.
    check: Callable[[str, "Workload"], float]


def make(name: str, seed: int, out_dir: Path, scale: float = 1.0) -> Workload:
    """The workload ``name`` under ``seed``, writing its files into ``out_dir``.

    ``scale`` shrinks the sizes for smoke tests; 1.0 is the benchmark.
    """
    if name == "triangle":
        trials = max(10_000, round(TRIANGLE_TRIALS * scale))
        report = out_dir / "report.json"
        args = ["estimate", "--trials", str(trials), "--seed", str(seed), "--json", str(report)]
        return Workload(name, args, trials, (report,), _check_estimate)
    if name == "needle":
        trials = max(10_000, round(NEEDLE_TRIALS * scale))
        report = out_dir / "report.json"
        args = [
            "estimate", "--method", "needle", "--ratio", "0.5",
            "--trials", str(trials), "--seed", str(seed), "--json", str(report),
        ]
        return Workload(name, args, trials, (report,), _check_estimate)
    if name == "batch":
        trials = max(100, round(BATCH_TRIALS * scale))
        csv, svg = out_dir / "runs.csv", out_dir / "histogram.svg"
        args = [
            "batch", "--runs", str(BATCH_RUNS), "--trials", str(trials), "--seed", str(seed),
            "--workers", str(NPROC), "--csv", str(csv), "--svg", str(svg),
        ]
        return Workload(name, args, BATCH_RUNS * trials, (csv, svg), _check_batch)
    if name == "validate":
        # The quadrature is deterministic, so the seed changes nothing here.
        shrink = math.sqrt(scale)
        n_theta, n_offset = (
            max(low, round(full * shrink))
            for full, low in zip(VALIDATE_RESOLUTION, MIN_VALIDATE_RESOLUTION)
        )
        args = ["validate", "--resolution", f"{n_theta}x{n_offset}"]
        return Workload(name, args, n_theta * n_offset, (), _check_validate)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _field(stdout: str, label: str) -> float:
    """The number printed on the line ``<label> = <number>``; ``label`` is a regex."""
    match = re.search(rf"^{label} = (\S+)", stdout, re.MULTILINE)
    if match is None:
        raise CheckFailed(f"no '{label} = ...' line in the output")
    return float(match.group(1))


def near_pi(estimate: float, standard_error: float) -> None:
    if not (standard_error > 0 and abs(estimate - math.pi) < 5 * standard_error):
        raise CheckFailed(f"estimate {estimate!r} is not within 5 SE ({standard_error!r}) of pi")


def _check_estimate(stdout: str, wl: Workload) -> float:
    report = json.loads(wl.outputs[0].read_text(encoding="utf-8"))
    trials = int(wl.args[wl.args.index("--trials") + 1])
    if report["trials"] != trials:
        raise CheckFailed(f"report has {report['trials']} trials, expected {trials}")
    if report["method"] == "triangle":
        recomputed = 12.0 * trials / (report["count_x"] + report["count_y"])
    else:
        recomputed = 2.0 * report["ratio"] * trials / report["hits"]
    estimate = report["pi_estimate"]
    if not math.isclose(estimate, recomputed, rel_tol=1e-12):
        raise CheckFailed(f"pi_estimate {estimate!r} does not follow from the counts")
    if abs(_field(stdout, "pi estimate") - estimate) > 1e-6:
        raise CheckFailed("printed estimate differs from the JSON report")
    near_pi(estimate, report["standard_error"])
    return report["standard_error"]


def _check_batch(stdout: str, wl: Workload) -> float:
    csv, svg = wl.outputs
    lines = csv.read_text(encoding="utf-8").splitlines()
    runs = int(wl.args[wl.args.index("--runs") + 1])
    if lines[0] != "run,pi_estimate" or len(lines) != runs + 1:
        raise CheckFailed(f"CSV has {len(lines) - 1} rows under {lines[0]!r}, expected {runs}")
    estimates = []
    for k, line in enumerate(lines[1:]):
        index, value = line.split(",")
        if int(index) != k:
            raise CheckFailed(f"CSV row {k} is labelled {index}")
        estimates.append(float(value))
    mean = statistics.fmean(estimates)
    standard_error = statistics.stdev(estimates) / math.sqrt(runs)
    if abs(_field(stdout, "mean") - mean) > 1e-6:
        raise CheckFailed("printed mean differs from the CSV")
    near_pi(mean, standard_error)
    if "<svg" not in svg.read_text(encoding="utf-8"):
        raise CheckFailed("histogram file holds no <svg> element")
    return standard_error


def _check_validate(stdout: str, wl: Workload) -> float:
    if not re.search(r"^PASS\b", stdout, re.MULTILINE):
        raise CheckFailed("validate did not print PASS")
    quadrature = _field(stdout, r"quadrature \S+")
    return abs(12.0 / quadrature - math.pi)
