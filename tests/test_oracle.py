import math

import numpy as np
import pytest

import buffon.oracle as oracle
from buffon.estimators import run_needle_trials, run_triangle_trials
from buffon.geometry import crossings_per_cast, make_triangle
from buffon.oracle import (
    expected_crossings_closed_form,
    expected_crossings_quadrature,
)
from buffon.sampling import RngConfig, cast_columns

from conftest import TIE_ROTATIONS, expected_crossings_given_rotation, needle_hit_probability

TARGET = 12.0 / math.pi


def _analytic_mean(n: int) -> float:
    """The midpoint mean of ``expected_crossings_given_rotation`` over n rotations in one period, [0, 2*pi/3)."""
    step = 2.0 * math.pi / 3.0 / n
    return math.fsum(expected_crossings_given_rotation((k + 0.5) * step) for k in range(n)) / n


class TestAnalyticOracle:
    """The counter and the lattice oracle against ``expected_crossings_given_rotation``, which uses ``math`` alone.

    Over the offsets k/n, the lines of one family that the cast straddles
    are the points of the lattice (1/n)Z in ``(lo, hi]``, so their mean is
    within 1/n of the width ``hi - lo``; two crossings per line and two
    families make the bound 4/n on the mean crossings.
    """

    def test_rotation_mean_is_12_over_pi(self):
        assert abs(_analytic_mean(3600) - TARGET) < 1e-7

    @pytest.mark.parametrize("rotation", sorted({*TIE_ROTATIONS, 0.1, 1.0, 2.5, 4.0, 6.2}))
    @pytest.mark.parametrize("n", [50, 200, 997])
    def test_offset_lattice_mean_at_a_rotation(self, rotation, n):
        offsets = np.arange(n) / n
        count_x, count_y = crossings_per_cast(make_triangle((0.0, 0.0), 1.0, rotation), offsets, offsets)
        mean = int((count_x + count_y).sum()) / n
        assert abs(mean - expected_crossings_given_rotation(rotation)) <= 4 / n

    @pytest.mark.parametrize("n_theta, n_offset", [(8, 8), (16, 16), (90, 50), (90, 90), (360, 200), (45, 997)])
    def test_quadrature_against_the_analytic_mean(self, n_theta, n_offset):
        assert abs(expected_crossings_quadrature(n_theta, n_offset) - _analytic_mean(n_theta)) <= 4 / n_offset


class TestQuadrature:
    # Slabs of whole rows (200 points and more) and of pieces of one row (7, 64, 199).
    @pytest.mark.parametrize("slab", [7, 64, 199, 200, 1400, 5000])
    def test_slab_size_does_not_change_the_value(self, monkeypatch, slab):
        whole = expected_crossings_quadrature(360, 200)
        monkeypatch.setattr(oracle, "_SLAB_POINTS", slab)
        assert expected_crossings_quadrature(360, 200) == whole

    def test_lattice_beyond_the_point_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_POINTS", 8 * 100)
        assert expected_crossings_quadrature(8, 100) > 0
        with pytest.raises(MemoryError, match="801 points"):
            expected_crossings_quadrature(9, 89)

    def test_default_resolution_hits_target(self):
        value = expected_crossings_quadrature(360, 200)
        assert abs(value - TARGET) < 1e-3
        # frozen regression value for this lattice
        assert value == pytest.approx(3.8202222222222084, abs=1e-9)

    def test_coarse_lattice_sanity(self):
        value = expected_crossings_quadrature(8, 8)
        assert abs(value - TARGET) < 0.1
        assert value == pytest.approx(3.75, abs=1e-12)

    def test_refining_the_lattice_improves_the_estimate(self):
        coarse = abs(expected_crossings_quadrature(8, 8) - TARGET)
        finer = abs(expected_crossings_quadrature(16, 16) - TARGET)
        assert finer < coarse

    def test_doubling_default_resolution_improves_the_estimate(self):
        coarse = abs(expected_crossings_quadrature(360, 200) - TARGET)
        fine = abs(expected_crossings_quadrature(720, 400) - TARGET)
        assert fine < coarse

    def test_rejects_tiny_lattices(self):
        with pytest.raises(ValueError):
            expected_crossings_quadrature(7, 200)
        with pytest.raises(ValueError):
            expected_crossings_quadrature(360, 7)


class TestMeanWidth:
    """The mean width 3*side/pi that ``expected_crossings_closed_form`` rests on: its rate is 4 mean widths per spacing."""

    def test_unit_side(self):
        value = expected_crossings_closed_form(1.0, 1.0) / 4.0
        assert value == pytest.approx(3.0 / math.pi, rel=1e-15)
        assert f"{value:.6f}" == "0.954930"

    def test_linear_in_side(self):
        unit = expected_crossings_closed_form(1.0, 1.0)
        assert expected_crossings_closed_form(2.0, 1.0) == pytest.approx(2.0 * unit, rel=1e-15)

    def test_matches_numeric_projection_average(self):
        # average the projection extent of the unit triangle over 10^4 directions
        v = make_triangle((0.0, 0.0), 1.0, 0.0)
        n = 10_000
        total = 0.0
        for i in range(n):
            theta = (i + 0.5) * (2.0 * math.pi / n)
            c, s = math.cos(theta), math.sin(theta)
            projections = [p[0] * c + p[1] * s for p in v]
            total += max(projections) - min(projections)
        assert total / n == pytest.approx(3.0 / math.pi, abs=1e-4)

    def test_rejects_nonpositive_side(self):
        with pytest.raises(ValueError, match="side must be positive"):
            expected_crossings_closed_form(0.0, 1.0)


class TestClosedForm:
    def test_unit_configuration_is_twelve_over_pi(self):
        assert expected_crossings_closed_form(1.0, 1.0) == 12.0 / math.pi

    def test_scale_invariant(self):
        assert expected_crossings_closed_form(2.0, 2.0) == pytest.approx(12.0 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("side, spacing", [(0.5, 1.0), (2.0, 1.0), (1.0, 3.7)])
    def test_crofton_rate_at_any_ratio(self, side, spacing):
        # A million casts of the counter at side != spacing land within 5
        # standard errors of 12 * side / (pi * spacing).  The unit offsets are
        # scaled up to the grid.
        rotation, offset_x, offset_y = cast_columns(RngConfig(23, 0).stream().random(3_000_000))
        v = make_triangle((0.0, 0.0), side, rotation)
        count_x, count_y = crossings_per_cast(v, spacing * offset_x, spacing * offset_y, spacing)
        total = count_x + count_y
        standard_error = total.std(ddof=1) / math.sqrt(total.size)
        assert abs(total.mean() - expected_crossings_closed_form(side, spacing)) < 5 * standard_error

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            expected_crossings_closed_form(1.0, 0.0)


class TestThreeWayAgreement:
    def test_quadrature_against_closed_form(self):
        quadrature = expected_crossings_quadrature(360, 200)
        closed = expected_crossings_closed_form(1.0, 1.0)
        assert abs(quadrature - closed) < 1e-3

    def test_quadrature_against_monte_carlo(self):
        quadrature = expected_crossings_quadrature(360, 200)
        tally = run_triangle_trials(1_000_000, RngConfig(5, 0).stream())
        assert abs(quadrature - tally.intersections / tally.trials) < 0.01


class TestNeedleOracle:
    """The needle's hit rate against ``needle_hit_probability``, which shares no code with the package."""

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
    def test_quadrature_matches_the_closed_form(self, ratio):
        assert needle_hit_probability(ratio) == pytest.approx(2.0 * ratio / math.pi, abs=1e-8)

    @pytest.mark.parametrize("ratio, seed", [(0.5, 31), (1.0, 32)])
    def test_hit_rate_lies_within_four_standard_errors(self, ratio, seed):
        # 2e6 drops: a 1% bias in the drops' distance moves the rate by ~8.5 SE at ratio 0.5, ~18 at 1.
        rate, se = run_needle_trials(2_000_000, RngConfig(seed, 0).stream(), ratio).rate()
        assert abs(rate - needle_hit_probability(ratio)) < 4 * se
