import math

import pytest

import buffon.oracle as oracle
from buffon.estimators import run_triangle_trials
from buffon.geometry import crossings_per_cast, make_triangle
from buffon.oracle import (
    expected_crossings_closed_form,
    expected_crossings_quadrature,
    mean_width_identity,
)
from buffon.sampling import RngConfig, draw_casts

TARGET = 12.0 / math.pi


class TestQuadrature:
    # Slabs of whole rows (200 points and more) and of pieces of one row (7, 64, 199).
    @pytest.mark.parametrize("slab", [7, 64, 199, 200, 1400, 5000])
    def test_slab_size_does_not_change_the_value(self, monkeypatch, slab):
        whole = expected_crossings_quadrature(360, 200, theta_origin=0.1)
        monkeypatch.setattr(oracle, "_SLAB_POINTS", slab)
        assert expected_crossings_quadrature(360, 200, theta_origin=0.1) == whole

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

    def test_invariant_under_theta_origin_shift(self):
        base = expected_crossings_quadrature(360, 200)
        shifted = expected_crossings_quadrature(360, 200, theta_origin=0.1)
        assert abs(shifted - TARGET) < 1e-3
        assert abs(shifted - base) < 2e-3

    def test_rejects_tiny_lattices(self):
        with pytest.raises(ValueError):
            expected_crossings_quadrature(7, 200)
        with pytest.raises(ValueError):
            expected_crossings_quadrature(360, 7)


class TestMeanWidth:
    def test_unit_side(self):
        value = mean_width_identity(1.0)
        assert value == pytest.approx(3.0 / math.pi, rel=1e-15)
        assert f"{value:.6f}" == "0.954930"

    def test_linear_in_side(self):
        assert mean_width_identity(2.0) == pytest.approx(2.0 * mean_width_identity(1.0), rel=1e-15)

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
        with pytest.raises(ValueError):
            mean_width_identity(0.0)


class TestClosedForm:
    def test_unit_configuration_is_twelve_over_pi(self):
        assert expected_crossings_closed_form(1.0, 1.0) == 12.0 / math.pi

    def test_scale_invariant(self):
        assert expected_crossings_closed_form(2.0, 2.0) == pytest.approx(12.0 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("side, spacing", [(0.5, 1.0), (2.0, 1.0), (1.0, 3.7)])
    def test_crofton_rate_at_any_ratio(self, side, spacing):
        # A million casts of the counter at side != spacing land within 5
        # standard errors of 12 * side / (pi * spacing).
        rotation, offset_x, offset_y = draw_casts(RngConfig(23, 0).stream(), 1_000_000, spacing)
        count_x, count_y = crossings_per_cast(make_triangle((0.0, 0.0), side, rotation), offset_x, offset_y, spacing)
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
