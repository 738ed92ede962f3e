"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s``).

The full-scale batch (criterion 1) walks a billion casts and takes a few
minutes of CPU; everything else finishes in seconds.
"""

import math
import xml.etree.ElementTree as ET

import numpy as np

from buffon.cli import main
from buffon.estimators import run_batch, run_needle_trials, run_triangle_trials, estimate_pi_needle
from buffon.geometry import crossings_per_cast, make_triangle
from buffon.oracle import expected_crossings_closed_form, expected_crossings_quadrature
from buffon.render import grid_lines_in_window
from buffon.sampling import RngConfig, draw_casts, sample_cast

from conftest import brute_force_tally, cast_vertices

SEED = 20240810
PI = math.pi


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _read_estimates(csv_path) -> list[float]:
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "run,pi_estimate"
    return [float(line.split(",")[1]) for line in lines[1:]]


def test_criterion_1_full_scale_batch_mean(tmp_path):
    csv_path = tmp_path / "full.csv"
    rc = main([
        "batch", "--runs", "1000", "--trials", "1000000",
        "--seed", str(SEED), "--csv", str(csv_path),
    ])
    assert rc == 0
    estimates = _read_estimates(csv_path)
    assert len(estimates) == 1000
    mean = sum(estimates) / len(estimates)
    gap = abs(mean - PI)
    _verdict(
        "1 full-scale batch", gap < 1e-3,
        f"1000 runs x 1e6 trials: mean {mean:.6f}, |mean - pi| = {gap:.2e} < 1e-3",
    )


def test_criterion_2_desk_scale_batch_mean(tmp_path):
    csv_path = tmp_path / "desk.csv"
    rc = main([
        "batch", "--runs", "100", "--trials", "100000",
        "--seed", str(SEED), "--csv", str(csv_path),
    ])
    assert rc == 0
    estimates = _read_estimates(csv_path)
    mean = sum(estimates) / len(estimates)
    gap = abs(mean - PI)
    _verdict(
        "2 desk-scale batch", gap < 1e-2,
        f"100 runs x 1e5 trials: mean {mean:.6f}, |mean - pi| = {gap:.2e} < 1e-2",
    )


def test_criterion_3_constant_validation():
    target = 12.0 / PI
    quadrature = expected_crossings_quadrature(360, 200)
    closed = expected_crossings_closed_form(1.0, 1.0)
    mc_mean, standard_error = run_triangle_trials(10_000_000, RngConfig(SEED, 0).stream()).rate()
    sigmas = abs(quadrature - mc_mean) / standard_error
    ok = abs(quadrature - target) < 1e-3 and abs(quadrature - closed) < 1e-3 and sigmas < 3.0
    _verdict(
        "3 crossing-rate constant", ok,
        f"quadrature {quadrature:.6f} vs 12/pi {target:.6f} "
        f"(gap {abs(quadrature - target):.2e} < 1e-3), monte carlo within {sigmas:.2f} sigma < 3",
    )


def test_criterion_4_needle_baseline():
    tally = run_needle_trials(1_000_000, RngConfig(SEED, 0).stream(), 1.0)
    rate = tally.counts[0] / tally.trials
    rate_gap = abs(rate - 2.0 / PI)
    estimate = estimate_pi_needle(tally).pi_estimate
    estimate_gap = abs(estimate - PI)
    _verdict(
        "4 needle baseline", rate_gap < 0.002 and estimate_gap < 0.01,
        f"hit rate {rate:.6f} (|gap| = {rate_gap:.2e} < 2e-3), "
        f"estimate {estimate:.6f} (|gap| = {estimate_gap:.2e} < 1e-2)",
    )


def _casts(stream_id, n=100_000):
    rotation, offset_x, offset_y = draw_casts(RngConfig(SEED, stream_id).stream(), n, 1.0)
    return make_triangle((0.0, 0.0), 1.0, rotation), offset_x, offset_y


def test_criterion_5_sorted_counts_equal_direct_counts():
    v, offset_x, offset_y = _casts(0)
    count_x, count_y = crossings_per_cast(v, offset_x, offset_y)
    mismatches = 0
    for i in range(offset_x.size):
        if (count_x[i], count_y[i]) != brute_force_tally(cast_vertices(v, i), offset_x[i], offset_y[i]):
            mismatches += 1
    _verdict(
        "5 sorted equals direct", mismatches == 0,
        f"100000 casts, {mismatches} mismatches between floor-difference and per-side counts",
    )


def test_criterion_6_parity_and_bounds():
    v, offset_x, offset_y = _casts(1)
    count_x, count_y = crossings_per_cast(v, offset_x, offset_y)
    family_ok = np.isin(count_x, (0, 2)) & np.isin(count_y, (0, 2))
    total_ok = np.isin(count_x + count_y, (0, 2, 4))
    violations = int((~(family_ok & total_ok)).sum())
    _verdict(
        "6 parity and bounds", violations == 0,
        f"100000 casts, {violations} counts outside {{0,2}} per family / {{0,2,4}} total",
    )


def test_criterion_7_determinism_across_workers(tmp_path):
    outputs = []
    for tag, workers in (("a", "1"), ("b", "8"), ("c", "1")):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        rc = main([
            "batch", "--runs", "6", "--trials", "5000", "--seed", "99",
            "--workers", workers, "--csv", str(csv_path), "--svg", str(svg_path),
        ])
        assert rc == 0
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(
        "7 determinism", ok,
        "repeated batches at workers 1 and 8 produced byte-identical CSV and SVG",
    )


def test_criterion_8_one_over_sqrt_n_scaling():
    narrow = run_batch(200, 10_000, RngConfig(SEED, 0))
    wide = run_batch(200, 40_000, RngConfig(SEED + 1, 0))
    ratio = wide.stddev / narrow.stddev
    ok = 0.4 <= ratio <= 0.6
    _verdict(
        "8 convergence scaling", ok,
        f"stddev ratio at 4e4 vs 1e4 trials = {ratio:.3f}, within 20% of 1/2",
    )


def test_criterion_9_render_contract(tmp_path):
    out_dir = tmp_path / "casts"
    rc = main(["render", "--images", "3", "--seed", "31", "--out", str(out_dir)])
    assert rc == 0
    names = sorted(p.name for p in out_dir.iterdir())
    ok = names == ["plot00.svg", "plot01.svg", "plot02.svg"]
    # regenerate the same casts to know how many grid lines each window shows
    rng = RngConfig(31, 0).stream()
    details = []
    for name in names:
        cast = sample_cast(rng, 1.0)
        r = 1.0 / math.sqrt(3.0)
        expected_red = len(grid_lines_in_window(cast.offset_x, 1.0, -r, r)) + len(
            grid_lines_in_window(cast.offset_y, 1.0, -r, r)
        )
        root = ET.fromstring((out_dir / name).read_text())
        lines = [el for el in root if el.tag.endswith("line")]
        black = sum(el.get("stroke") == "black" for el in lines)
        red = sum(el.get("stroke") == "red" for el in lines)
        rects = [el for el in root if el.tag.endswith("rect")]
        ok = ok and black == 3 and red == expected_red and len(rects) == 1
        details.append(f"{name}: 3 edges, {red}/{expected_red} grid lines")
    _verdict("9 render contract", ok, "; ".join(details))
