"""The traced run: per-layer metrics from in-process calls into each module.

One iteration runs a fixed layer suite (the trial kernels with a timing
Generator, stream setup, the quadrature oracle, SVG rendering, the batch
pool at 1 and at nproc workers) and then the workload's own command
through ``cli.main``, once untraced and once with every library function
the CLI calls wrapped in a span.  Iterations repeat until the run's time is
up; each metric is reported as the median over iterations.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import time
from pathlib import Path
from unittest import mock

import workloads
from tracing import TimedRng, Tracer
from workloads import NPROC, CheckFailed, Checks, digest, near_pi

# Layer-suite sizes at scale 1: each step takes well under a second on a
# 2-core Xeon, so one suite pass is about three seconds.
TRIANGLE_CASTS = 2_000_000
NEEDLE_CASTS = 10_000_000
STREAMS = 2_000
QUADRATURE = (360, 200)
RENDER_CASTS = 200
HISTOGRAMS = 50
POOL_RUNS = 400  # batch runs of workloads.BATCH_TRIALS casts each

# Per-layer metrics and their units, in report order.
UNITS = {
    "sampling.draw_ns_per_uniform": "ns",
    "sampling.draw_share_triangle": "1",
    "sampling.draw_share_needle": "1",
    "sampling.uniforms_per_cast": "count",
    "sampling.stream_us": "us",
    "estimators.triangle_ns_per_cast": "ns",
    "estimators.triangle_self_ns_per_cast": "ns",
    "estimators.needle_ns_per_cast": "ns",
    "estimators.needle_self_ns_per_cast": "ns",
    "estimators.block_casts": "count",
    "estimators.var_per_cast": "1",
    "estimators.pool_start_s": "s",
    "estimators.batch_speedup": "x",
    "estimators.pool_busy_frac": "1",
    "geometry.crossings_per_cast_us": "us",
    "geometry.lattice_calls": "count",
    "oracle.quadrature_s": "s",
    "oracle.abs_gap": "1",
    "render.cast_svg_us": "us",
    "render.histogram_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_ratio": "x",
}


def traced_run(name: str, seed: int, seconds: float, scale: float, out_dir: Path):
    """Run the layer suite and the workload's command until ``seconds`` pass.

    Returns (samples per metric, Checks, the Tracer, observed block size).
    """
    from buffon import cli

    tracer = Tracer()
    checks = Checks()
    samples: dict[str, list[float]] = {metric: [] for metric in UNITS}
    wl = workloads.make(name, seed, out_dir, scale)
    reference: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        for metric, value in _layer_suite(tracer, checks, seed, scale, out_dir).items():
            samples[metric].append(value)

        plain_ns, (code, stdout) = _timed(lambda: _cli_main(cli, wl.args))
        _check_command(checks, "untraced workload command", wl, code, stdout, reference)
        code, stdout, top = traced_cli(tracer, cli, wl.args)
        _check_command(checks, "traced workload command", wl, code, stdout, reference)
        samples["cli.overhead_ms"].append(tracer.self_ns(top) / 1e6)
        samples["trace.overhead_ratio"].append(top.ns / plain_ns)

        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    block = samples["estimators.block_casts"][0]
    return samples, checks, tracer, block


def block_casts(draws, casts: int) -> float:
    """The kernel's block size in casts, from the draw spans of one kernel call of ``casts`` casts."""
    uniforms = [d.attrs["uniforms"] for d in draws]
    return max(uniforms) * casts / sum(uniforms)


def observe_block_casts(seed: int, casts: int = 1 << 20) -> float:
    """``block_casts`` of one triangle kernel call, for runs that make no other."""
    from buffon.estimators import run_triangle_trials
    from buffon.sampling import RngConfig

    tracer = Tracer()
    run_triangle_trials(casts, TimedRng(RngConfig(seed, 0).stream(), tracer))
    return block_casts(tracer.spans, casts)


def _check_command(checks, what, wl, code, stdout, reference) -> None:
    """Exit code 0, the workload's output checks, and bytes equal to the first run."""
    with checks.check(what):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        wl.check(stdout, wl)
        reference.append(digest(stdout, wl.outputs))
        if reference[-1] != reference[0]:
            raise CheckFailed("outputs differ from the first same-seed run")


def _timed(fn):
    start = time.perf_counter_ns()
    result = fn()
    return time.perf_counter_ns() - start, result


def _cli_main(cli, args) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def traced_cli(tracer: Tracer, cli, args):
    """``cli.main(args)`` under a span, with each library function it calls traced.

    Every function the CLI module imports from another buffon module is
    replaced by a span-recording wrapper, and the streams it creates by
    TimedRng, so draws nest under the kernel call that made them.  Returns
    (exit code, stdout, the cli.main span).
    """
    from buffon.sampling import RngConfig

    patches = {
        attr: tracer.traced(f"{fn.__module__.removeprefix('buffon.')}.{fn.__name__}", fn)
        for attr, fn in vars(cli).items()
        if inspect.isfunction(fn) and fn.__module__.startswith("buffon.") and fn.__module__ != cli.__name__
    }

    class TracedRngConfig(RngConfig):
        def stream(self):
            return TimedRng(super().stream(), tracer)

    patches["RngConfig"] = TracedRngConfig
    with mock.patch.multiple(cli, **patches), tracer.span("cli.main", args=list(args)) as top:
        code, stdout = _cli_main(cli, args)
    return code, stdout, top


def _layer_suite(tracer: Tracer, checks: Checks, seed: int, scale: float, out_dir: Path) -> dict:
    from buffon import cli, geometry, oracle
    from buffon.estimators import (
        estimate_pi_needle,
        estimate_pi_triangle,
        run_batch,
        run_needle_trials,
        run_triangle_trials,
    )
    from buffon.geometry import GridSpec, TriangleSpec
    from buffon.render import HistogramScene, render_cast, render_histogram, scene_for_cast
    from buffon.sampling import RngConfig, sample_cast

    m = {}

    # Trial kernels, with every draw timed under the kernel call.
    n_tri = max(10_000, round(TRIANGLE_CASTS * scale))
    with tracer.span("estimators.run_triangle_trials", casts=n_tri) as tri:
        agg = run_triangle_trials(n_tri, TimedRng(RngConfig(seed, 0).stream(), tracer))
    n_needle = max(10_000, round(NEEDLE_CASTS * scale))
    with tracer.span("estimators.run_needle_trials", casts=n_needle) as needle:
        needle_agg = run_needle_trials(n_needle, TimedRng(RngConfig(seed, 0).stream(), tracer), 0.5)
    tri_summary = estimate_pi_triangle(agg)
    with checks.check("triangle kernel estimate"):
        near_pi(tri_summary.pi_estimate, tri_summary.standard_error)
    with checks.check("needle kernel estimate"):
        summary = estimate_pi_needle(needle_agg)
        near_pi(summary.pi_estimate, summary.standard_error)
    tri_draws, needle_draws = tracer.children(tri), tracer.children(needle)
    tri_uniforms = sum(d.attrs["uniforms"] for d in tri_draws)
    uniforms_per_cast = tri_uniforms / n_tri
    draw_ns = sum(d.ns for d in tri_draws + needle_draws)
    m["sampling.draw_ns_per_uniform"] = draw_ns / (tri_uniforms + sum(d.attrs["uniforms"] for d in needle_draws))
    m["sampling.draw_share_triangle"] = sum(d.ns for d in tri_draws) / tri.ns
    m["sampling.draw_share_needle"] = sum(d.ns for d in needle_draws) / needle.ns
    m["sampling.uniforms_per_cast"] = uniforms_per_cast
    m["estimators.triangle_ns_per_cast"] = tri.ns / n_tri
    m["estimators.triangle_self_ns_per_cast"] = tracer.self_ns(tri) / n_tri
    m["estimators.needle_ns_per_cast"] = needle.ns / n_needle
    m["estimators.needle_self_ns_per_cast"] = tracer.self_ns(needle) / n_needle
    m["estimators.block_casts"] = block_casts(tri_draws, n_tri)
    m["estimators.var_per_cast"] = n_tri * tri_summary.standard_error**2

    # Stream setup, paid once per batch run.
    n_streams = max(10, round(STREAMS * scale))
    with tracer.span("sampling.streams", streams=n_streams) as streams:
        for k in range(n_streams):
            RngConfig(seed, k).stream()
    m["sampling.stream_us"] = streams.ns / n_streams / 1e3

    # The quadrature oracle, untraced for its time, then with each geometry
    # call counted; tracing must not change its value.
    shrink = math.sqrt(scale)
    n_theta, n_offset = (max(8, round(n * shrink)) for n in QUADRATURE)
    quadrature_ns, value = _timed(lambda: oracle.expected_crossings_quadrature(n_theta, n_offset))
    counted = tracer.counted("geometry.crossings_per_cast", geometry.crossings_per_cast)
    counter = tracer.counters["geometry.crossings_per_cast"]
    calls_before, ns_before = counter
    with mock.patch.object(oracle, "crossings_per_cast", counted):
        with tracer.span("oracle.expected_crossings_quadrature", resolution=[n_theta, n_offset]):
            traced_value = oracle.expected_crossings_quadrature(n_theta, n_offset)
    with checks.check("traced quadrature equals untraced"):
        if traced_value != value:
            raise CheckFailed(f"{traced_value!r} != {value!r}")
    calls = counter[0] - calls_before
    m["geometry.crossings_per_cast_us"] = (counter[1] - ns_before) / calls / 1e3
    m["geometry.lattice_calls"] = calls
    m["oracle.quadrature_s"] = quadrature_ns / 1e9
    m["oracle.abs_gap"] = abs(value - oracle.expected_crossings_closed_form(1.0, 1.0))

    # Cast snapshots.
    rng = RngConfig(seed, 0).stream()
    casts = [sample_cast(rng, 1.0) for _ in range(max(10, round(RENDER_CASTS * scale)))]
    with tracer.span("render.render_cast", casts=len(casts)) as render:
        for c in casts:
            svg = render_cast(
                scene_for_cast(TriangleSpec((0.0, 0.0), 1.0, c.rotation), GridSpec(1.0, c.offset_x, c.offset_y))
            )
    with checks.check("cast SVG"):
        if "<svg" not in svg:
            raise CheckFailed("no <svg> element")
    m["render.cast_svg_us"] = render.ns / len(casts) / 1e3

    # Pool start: a pool of at least two workers running one 100-cast run
    # each, so the pool's start and shutdown are nearly all of the time.
    workers = max(2, NPROC)
    with tracer.span("estimators.run_batch", runs=workers, trials=100, workers=workers) as pool:
        result = run_batch(workers, 100, RngConfig(seed, 0), workers=workers)
    m["estimators.pool_start_s"] = pool.ns / 1e9

    scene = HistogramScene(bins=result.histogram, mean=result.mean)
    n_figures = max(5, round(HISTOGRAMS * scale))
    with tracer.span("render.render_histogram", figures=n_figures) as figures:
        for _ in range(n_figures):
            render_histogram(scene)
    m["render.histogram_ms"] = figures.ns / n_figures / 1e6

    # The batch command at 1 and at nproc workers: same bytes, and the speedup.
    outputs, batch_ns = {}, {}
    for workers in (1, NPROC):
        csv, svg_path = out_dir / f"runs-w{workers}.csv", out_dir / f"histogram-w{workers}.svg"
        args = [
            "batch", "--runs", str(POOL_RUNS), "--trials", str(max(100, round(workloads.BATCH_TRIALS * scale))),
            "--seed", str(seed), "--workers", str(workers), "--csv", str(csv), "--svg", str(svg_path),
        ]
        code, stdout, top = traced_cli(tracer, cli, args)
        (batch,) = [s for s in tracer.children(top) if s.name == "estimators.run_batch"]
        batch_ns[workers] = batch.ns
        with checks.check(f"batch command at {workers} workers"):
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            outputs[workers] = csv.read_bytes() + svg_path.read_bytes()
    with checks.check(f"batch CSV and SVG at 1 and {NPROC} workers are identical"):
        if outputs.get(1) != outputs.get(NPROC):
            raise CheckFailed("outputs differ")
    m["estimators.batch_speedup"] = batch_ns[1] / batch_ns[NPROC]
    m["estimators.pool_busy_frac"] = batch_ns[1] / (NPROC * batch_ns[NPROC])
    return m
