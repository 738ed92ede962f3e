"""Command-line front end: estimate, batch, render and validate subcommands.

Every subcommand that draws random numbers echoes its seed, and identical
flags (seed included) produce byte-identical machine-readable outputs.
Exit codes: 0 success, 1 usage error, 2 runtime or validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .estimators import (
    DegenerateSampleError,
    SplitRun,
    Tally,
    WorkerDiedError,
    _usable_cpus,
    estimate_pi_needle,
    estimate_pi_triangle,
    run_batch,
    run_needle_trials,
    run_triangle_trials,
)
from .geometry import GridSpec, TriangleSpec, crossings_per_cast
from .oracle import expected_crossings_closed_form, expected_crossings_quadrature
from .render import HistogramScene, filename_for_cast, render_cast, render_histogram, scene_for_cast
from .sampling import RngConfig, sample_cast

_USAGE_EXIT = 1
_FAILURE_EXIT = 2


def _to_stderr(text: str) -> None:
    """Print ``text`` on stderr, or nothing if stderr is closed (None) or unwritable: never on stdout."""
    if sys.stderr is not None:
        try:
            print(text, file=sys.stderr)
        except OSError:
            pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; remap usage errors to 1."""

    def error(self, message):
        _to_stderr(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(_USAGE_EXIT)


def _resolve_seed(value: int | None) -> int:
    if value is None:
        value = int.from_bytes(os.urandom(8), "little")
        print(f"seed = {value} (generated)")
    else:
        print(f"seed = {value}")
    return value


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")


def _needle_ratio(args) -> float:
    """The needle's ``--ratio``, 1 when omitted; a usage error with the triangle or outside (0, 1]."""
    if args.ratio is None:
        return 1.0
    if args.method == "triangle":
        raise ValueError("--ratio only applies to --method needle")
    if not 0 < args.ratio <= 1:
        raise ValueError(f"--ratio must lie in (0, 1], got {args.ratio}")
    return args.ratio


def _run_stream_zero(trials: int, seed: int, method: str, ratio: float, workers: int) -> Tally:
    """One run on stream 0.  This process draws the first share of the casts
    straight from the start of the stream, as a one-worker run draws them all,
    while a child process tallies each other share (see ``SplitRun``).

    The share is drawn here, with the trial loop, so that the kernel call is a
    step of the command itself: ``bench/layers.py`` traces the functions this
    module calls and the streams it makes.
    """
    config = RngConfig(seed, 0)
    with SplitRun(trials, config, method, ratio=ratio, workers=workers) as run:
        if method == "triangle":
            return run.join(run_triangle_trials(run.head, config.stream()))[0]
        return run.join(run_needle_trials(run.head, config.stream(), ratio))[0]


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_estimate(args) -> int:
    ratio = _needle_ratio(args)
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    _check_workers(args.workers)
    seed = _resolve_seed(args.seed)
    tally = _run_stream_zero(args.trials, seed, args.method, ratio, args.workers)
    summary = (estimate_pi_triangle if args.method == "triangle" else estimate_pi_needle)(tally)
    counts = tally.named_counts()
    for name, count in counts.items():
        print(f"{name} = {count}\t{name}/trials = {count / tally.trials:.6f}")
    report = {
        "method": args.method,
        "trials": tally.trials,
        "seed": seed,
        **counts,
        "pi_estimate": summary.pi_estimate,
        "standard_error": summary.standard_error,
    }
    if args.method == "needle":
        report["ratio"] = ratio
    print(f"pi estimate = {summary.pi_estimate:.6f}")
    if summary.standard_error is not None:
        print(f"standard error = {summary.standard_error:.6f}")
    if args.json:
        _write_text(args.json, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_batch(args) -> int:
    ratio = _needle_ratio(args)
    if args.runs < 1 or args.trials < 1:
        raise ValueError("--runs and --trials must be >= 1")
    if args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    _check_workers(args.workers)
    seed = _resolve_seed(args.seed)
    result = run_batch(
        args.runs,
        args.trials,
        RngConfig(seed, 0),
        args.method,
        ratio=ratio,
        bins=args.bins,
        workers=args.workers,
    )
    print(f"runs = {args.runs}  trials/run = {args.trials}")
    print(
        f"mean = {result.mean:.6f}  stddev = {result.stddev:.6f}  "
        f"95% CI = [{result.ci_low:.6f}, {result.ci_high:.6f}]"
    )
    if args.csv:
        rows = [f"{k},{est!r}" for k, est in enumerate(result.estimates)]
        _write_text(args.csv, "run,pi_estimate\n" + "\n".join(rows) + "\n")
    if args.svg:
        scene = HistogramScene(bins=result.histogram, mean=result.mean)
        _write_text(args.svg, render_histogram(scene))
    return 0


def cmd_render(args) -> int:
    if args.images < 0:
        raise ValueError(f"--images cannot be negative, got {args.images}")
    seed = _resolve_seed(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = RngConfig(seed, 0).stream()
    for i in range(args.images):
        cast = sample_cast(rng, 1.0)
        tri = TriangleSpec((0.0, 0.0), 1.0, cast.rotation)
        grid = GridSpec(1.0, cast.offset_x, cast.offset_y)
        count_x, count_y = crossings_per_cast(tri.vertices(), cast.offset_x, cast.offset_y)
        name = filename_for_cast(i)
        (out_dir / name).write_text(render_cast(scene_for_cast(tri, grid)), encoding="utf-8")
        print(f"{name}: count_x = {count_x}  count_y = {count_y}")
    return 0


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        numbers = [int(p) for p in text.replace(",", "x").split("x") if p]
    except ValueError:
        numbers = []
    if not 1 <= len(numbers) <= 3:
        raise ValueError(f"bad --resolution {text!r}; use THETA, THETAxOFFSET or THETAxOFFSETxOFFSET")
    if len(numbers) == 3 and numbers[1] != numbers[2]:
        raise ValueError("the two offset lattice sizes must be equal")
    return numbers[0], numbers[-1]


def cmd_validate(args) -> int:
    if not 0 < args.tolerance < float("inf"):
        raise ValueError(f"--tolerance must be a positive finite number, got {args.tolerance}")
    if args.mc_trials is None and args.seed is not None:
        raise ValueError("--seed only applies with --mc-trials")
    if args.mc_trials is not None and args.mc_trials < 1:
        raise ValueError(f"--mc-trials must be >= 1, got {args.mc_trials}")
    n_theta, n_offset = _parse_resolution(args.resolution)
    quadrature = expected_crossings_quadrature(n_theta, n_offset)
    closed_form = expected_crossings_closed_form(1.0, 1.0)
    gap = abs(quadrature - closed_form)
    print(f"quadrature ({n_theta}x{n_offset}x{n_offset}) = {quadrature:.6f}")
    print(f"closed form 12/pi = {closed_form:.6f}")
    print(f"absolute gap = {gap:.6f}")
    ok = gap < args.tolerance
    if args.mc_trials is not None:
        seed = _resolve_seed(args.seed)
        tally = _run_stream_zero(args.mc_trials, seed, "triangle", 1.0, _usable_cpus())
        mc_mean, se = tally.rate()
        print(f"monte carlo mean ({tally.trials} trials) = {mc_mean:.6f}")
        if se:
            sigmas = abs(quadrature - mc_mean) / se
            print(f"monte carlo gap = {abs(quadrature - mc_mean):.6f} ({sigmas:.2f} standard errors)")
            ok = ok and sigmas < 3.0
        else:
            why = "undefined for one trial" if se is None else "0, as every cast crossed as many lines"
            print(f"monte carlo standard error is {why}, so the 3-sigma test cannot run")
            ok = False
    if ok:
        print(f"PASS (tolerance {args.tolerance})")
        return 0
    print(f"FAIL (tolerance {args.tolerance})")
    return _FAILURE_EXIT


def build_parser() -> _Parser:
    parser = _Parser(prog="buffon", description="Monte Carlo pi estimation by casting shapes on a grid")
    sub = parser.add_subparsers(dest="command", required=True)
    workers_help = "worker processes (default: usable CPUs; at most one process per usable CPU, this one included)"

    p = sub.add_parser("estimate", help="single run: cast and print the pi estimate")
    p.add_argument("--method", choices=("triangle", "needle"), default="triangle")
    p.add_argument("--trials", type=int, default=1_000_000, help="casts in the run (default 1000000)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed; generated and printed if omitted")
    p.add_argument("--ratio", type=float, default=None, help="needle length / line spacing (needle only, default 1)")
    p.add_argument("--json", default=None, metavar="PATH", help="write a JSON report")
    p.add_argument("--workers", type=int, default=_usable_cpus(), help=workers_help)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("batch", help="many runs on independent streams, with histogram")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1_000_000, help="casts per run")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--method", choices=("triangle", "needle"), default="triangle")
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--bins", type=int, default=40, help="histogram bin count")
    p.add_argument("--csv", default=None, metavar="PATH", help="write per-run estimates")
    p.add_argument("--svg", default=None, metavar="PATH", help="write the histogram figure")
    p.add_argument("--workers", type=int, default=_usable_cpus(), help=workers_help)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("render", help="write SVG snapshots of the first casts of a stream")
    p.add_argument("--images", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("validate", help="check the crossing-rate constant 12/pi")
    p.add_argument("--resolution", default="360x200x200", help="quadrature lattice (default 360x200x200)")
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--mc-trials", type=int, default=None, help="also compare a Monte Carlo mean")
    p.add_argument("--seed", type=int, default=None, help="seed for the Monte Carlo leg (needs --mc-trials)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Every subcommand takes --seed; a bad one fails before any output or work.
        if args.seed is not None and not 0 <= args.seed < 1 << 64:
            raise ValueError(f"--seed must lie in [0, 2**64), got {args.seed}")
        return args.func(args)
    except ValueError as exc:
        _to_stderr(f"error: {exc}")
        return _USAGE_EXIT
    except (DegenerateSampleError, WorkerDiedError, OSError) as exc:
        _to_stderr(f"error: {exc}")
        return _FAILURE_EXIT
    except MemoryError as exc:
        _to_stderr(f"error: out of memory: {exc}")
        return _FAILURE_EXIT
    except KeyboardInterrupt:
        _to_stderr("error: interrupted")
        return _FAILURE_EXIT


def app() -> None:
    """Entry point of ``python -m buffon.cli`` and of the ``buffon`` script.

    Runs ``main()``, flushes stdout and stderr, and ends the process with
    ``os._exit``, so no command pays the interpreter's teardown (a final
    garbage collection and the freeing of every module, ~30 ms).  Nothing is
    lost: every file a command writes is closed before ``main()`` returns,
    and buffon registers no ``atexit`` handler.  A stdout that cannot take
    the last of the output (its reader gone) turns a success into one
    ``error: ...`` line and exit 2; a failed command keeps its own code and
    line.  ``main()`` itself never ends the process.

    It also keeps OpenSSL's libcrypto out of the process and of every child
    it forks: ``numpy.random`` imports ``secrets``, hence ``hmac`` and
    ``hashlib``, which would map libcrypto (~3.4 MiB of peak RSS) though no
    command hashes anything.  With ``_hashlib`` blocked they use CPython's
    builtin digests instead; ``main()`` called from Python leaves it alone.
    """
    # Before main() imports numpy.random, and so inherited by every child it forks.
    sys.modules.setdefault("_hashlib", None)
    code = main()
    try:
        try:
            if sys.stdout is not None:  # None when started with stdout closed
                sys.stdout.flush()
        except OSError as exc:
            if code == 0:
                code = _FAILURE_EXIT
                _to_stderr(f"error: {exc}")
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # stderr is gone too, so there is no one to tell
        code = code or _FAILURE_EXIT
    os._exit(code)


if __name__ == "__main__":
    app()
