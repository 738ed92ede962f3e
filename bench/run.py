#!/usr/bin/env python3
"""Benchmark for buffon: run one workload under one seed and print its metrics.

    python3 bench/run.py --workload triangle --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the ``buffon`` CLI runs as a plain subprocess, with no
tracing, again and again until ``--seconds`` have passed; each repeat also
times a fresh interpreter importing ``buffon.cli`` (the set-up cost).  With
``--trace 1`` the layer suite in ``layers.py`` calls each module in-process
under the span recorder and reports per-layer metrics instead.

Every command's output is checked (see ``workloads.py``).  The lines printed
before the last give each metric's median, quartiles and sample count, the
host, and every failure; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report, with
all samples and (when traced) all spans, goes to ``.bench_work/``.  The
package is run from ``src/`` next to this directory; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads
from workloads import CheckFailed, Checks, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPEATS = 3
COMMAND_TIMEOUT_S = 30.0  # commands take about 2 s; a hung one must not outlast the run
TARGET_SE = 1e-4  # the precision s_to_se_1e-4 asks for

# End-to-end metrics and their units, in report order.
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "casts_per_s": "1/s",
    "s_to_se_1e-4": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Completed:
    """A finished subprocess: its wall time, peak RSS and what it printed."""

    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict:
    """The environment for buffon subprocesses: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(argv: list[str], cwd: Path, env: dict, timeout: float = COMMAND_TIMEOUT_S) -> Completed:
    """Run ``argv`` to completion and measure it.

    The child runs in its own process group so that a command over
    ``timeout`` is killed with any workers it started.  ``wait4`` reports
    the peak RSS of the child and of every descendant it waited for.
    """
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(
        wall,
        usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def measure_end_to_end(name: str, seed: int, seconds: float, scale: float, out_dir: Path):
    """Repeat the workload's command until ``seconds`` pass; returns (samples, Checks).

    One untimed warm-up repeat comes first: it writes bytecode and fills the
    page cache, and its outputs are the reference that every later repeat
    of the same seed must match byte for byte.
    """
    env = child_env()
    wl = workloads.make(name, seed, out_dir, scale)
    setup_argv = [sys.executable, "-c", "import buffon.cli"]
    command_argv = [sys.executable, "-m", "buffon.cli", *wl.args]
    checks = Checks()
    reference: list[str] = []
    good: list[tuple[float, Completed, float]] = []  # (setup wall, command, error on pi)

    def repeat() -> None:
        setup = run_command(setup_argv, out_dir, env)
        for path in wl.outputs:
            path.unlink(missing_ok=True)
        done = run_command(command_argv, out_dir, env)
        with checks.check(f"repeat {checks.attempted}"):
            if setup.code != 0:
                raise CheckFailed(f"importing buffon.cli exited {setup.code}: {setup.stderr[-500:]}")
            if done.code != 0:
                raise CheckFailed(f"exit code {done.code}: {done.stderr[-500:]}")
            error = wl.check(done.stdout, wl)
            reference.append(digest(done.stdout, wl.outputs))
            if reference[-1] != reference[0]:
                raise CheckFailed("outputs differ from the first same-seed repeat")
            good.append((setup.wall_s, done, error))

    repeat()
    del good[:]  # the warm-up is checked but not timed
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        repeat()
        # Stop before a repeat that would overrun the run's time.
        if checks.attempted > MIN_REPEATS and time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    if not good:
        return {}, checks
    setups = [s for s, _, _ in good]
    setup_s = statistics.median(setups)
    compute = [done.wall_s - setup_s for _, done, _ in good]
    return {
        "setup_s": setups,
        "wall_s": [done.wall_s for _, done, _ in good],
        "casts_per_s": [wl.casts / c for c in compute],
        "s_to_se_1e-4": [(error / TARGET_SE) ** 2 * c for (_, _, error), c in zip(good, compute)],
        "peak_rss_mb": [done.peak_rss_mb for _, done, _ in good],
    }, checks


def import_buffon():
    """Import buffon from this checkout's ``src``; exit with code 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import buffon
    except ImportError as exc:
        sys.exit(f"error: cannot import buffon from {SRC}: {exc}")
    if SRC not in Path(buffon.__file__).resolve().parents:
        sys.exit(f"error: buffon was imported from {buffon.__file__}, not from {SRC}")
    return buffon


def host_info(buffon, seed: int, block_casts: float) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": workloads.NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "buffon": buffon.__version__,
        "block_casts": block_casts,
        "seed": seed,
    }


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor; below 1 for smoke tests")
    args = parser.parse_args(argv)

    buffon = import_buffon()
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            samples, checks, tracer, block = layers.traced_run(
                args.workload, args.seed, args.seconds, args.scale, out_dir
            )
            units = layers.UNITS
            report["tracing"] = tracer.to_json()
        else:
            samples, checks = measure_end_to_end(args.workload, args.seed, args.seconds, args.scale, out_dir)
            units = UNITS
            block = layers.observe_block_casts(args.seed)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    report["host"] = host_info(buffon, args.seed, block)
    report["metrics"] = {name: {"unit": units[name], **quartiles(v), "samples": v} for name, v in samples.items()}
    report["attempted"], report["failures"] = checks.attempted, checks.failures
    report_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    mode = "traced, in-process" if args.trace else "end to end, tracing off"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  {args.seconds:g} s")
    print("host " + json.dumps(report["host"]))
    for name, m in report["metrics"].items():
        print(f"  {name:40s} {m['median']:<14.6g} {m['unit']:6s} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} n={m['n']}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    failed = len(checks.failures)
    print(f"attempted {checks.attempted}  failed {failed}  failed_frac {failed / checks.attempted:g}")
    print(f"report {report_path.relative_to(ROOT)}")
    if not samples or any(not v for v in samples.values()):
        print("error: no repeat succeeded, so there is nothing to report", file=sys.stderr)
        return 1
    metrics = {name: {"value": m["median"], "unit": m["unit"]} for name, m in report["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
