import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from buffon.geometry import (
    FILTER_GUARD,
    THIRD_TURN,
    GridSpec,
    TriangleSpec,
    crossings_per_cast,
    filter_workspace,
    filtered_crossings,
    filtered_hits,
    float32_extents,
    make_triangle,
)
from buffon.sampling import RngConfig, cast_columns

from conftest import (
    TIE_ROTATIONS,
    brute_force_tally,
    cast_vertices,
    exact_tally,
    reference_vertices,
    segment_crosses_line,
)

SQRT3 = math.sqrt(3.0)

# Dyadic stand-in for the rotation-0 unit triangle: every coordinate and
# line position below is exact, so vertex-on-line ties are real ties.
DYADIC = ((0.5, 0.0), (-0.25, 0.5), (-0.25, -0.5))


def _random_casts(seed, n):
    return cast_columns(RngConfig(seed, 0).stream().random(3 * n))


def _max_abs_gap(v, w):
    return max(abs(a - b) for p, q in zip(v, w) for a, b in zip(p, q))


class TestMakeTriangle:
    def test_unit_triangle_rotation_zero(self):
        v = make_triangle((0.0, 0.0), 1.0, 0.0)
        assert v[0] == pytest.approx((0.57735, 0.0), abs=5e-6)
        assert v[1] == pytest.approx((-0.28868, 0.5), abs=5e-6)
        assert v[2] == pytest.approx((-0.28868, -0.5), abs=5e-6)

    def test_pairwise_distances_equal_side(self):
        v = make_triangle((0.3, -1.7), 2.5, 1.234)
        for a, b in ((0, 1), (1, 2), (2, 0)):
            d = math.dist(v[a], v[b])
            assert d == pytest.approx(2.5, abs=2.5e-9)

    def test_third_turn_relabels_vertices(self):
        base = make_triangle((0.0, 0.0), 1.0, 0.0)
        turned = make_triangle((0.0, 0.0), 1.0, THIRD_TURN)
        assert turned[0] == pytest.approx(base[1], abs=1e-12)
        assert turned[1] == pytest.approx(base[2], abs=1e-12)
        assert turned[2] == pytest.approx(base[0], abs=1e-9)

    def test_offset_center_scaled_side(self):
        # radius recomputed independently from the side length
        r = 17320.5 / SQRT3
        v = make_triangle((10000.0, 10000.0), 17320.5, 0.0)
        assert v[0] == pytest.approx((10000.0 + r, 10000.0), abs=1e-9)
        assert abs(v[0][0] - 20000.0) < 0.005

    def test_array_rotations_match_scalar_calls(self):
        rotations = np.linspace(0.0, 7.0, 101)
        block = make_triangle((0.3, -1.7), 2.5, rotations)
        for i, rotation in enumerate(rotations):
            assert cast_vertices(block, i) == make_triangle((0.3, -1.7), 2.5, float(rotation))
        with pytest.raises(ValueError):
            make_triangle((0.0, 0.0), 1.0, np.array([0.0, float("nan")]))

    @pytest.mark.parametrize("side", [1.0, 3.7])
    def test_matches_reference_on_random_rotations(self, side):
        rotations = 2.0 * math.pi * RngConfig(58, 0).stream().random(10_000)
        block = make_triangle((0.0, 0.0), side, rotations)
        for i, rotation in enumerate(rotations.tolist()):
            gap = _max_abs_gap(cast_vertices(block, i), reference_vertices((0.0, 0.0), side, rotation))
            assert gap <= 1e-15 * side

    @pytest.mark.parametrize("side", [1.0, 3.7])
    def test_matches_reference_at_multiples_of_pi_over_6(self, side):
        for k in range(12):
            rotation = k * math.pi / 6.0
            v = make_triangle((0.0, 0.0), side, rotation)
            assert _max_abs_gap(v, reference_vertices((0.0, 0.0), side, rotation)) <= 1e-15 * side

    def test_one_cos_sin_pair_per_call(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "cos", counted("cos", np.cos))
        monkeypatch.setattr(np, "sin", counted("sin", np.sin))
        make_triangle((0.0, 0.0), 1.0, np.linspace(0.0, 6.0, 7))
        assert sorted(calls) == ["cos", "sin"]

    @pytest.mark.parametrize("side", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_side(self, side):
        with pytest.raises(ValueError):
            make_triangle((0.0, 0.0), side, 0.0)

    @pytest.mark.parametrize("rotation", [float("nan"), float("inf"), float("-inf")])
    def test_invalid_rotation(self, rotation):
        with pytest.raises(ValueError):
            make_triangle((0.0, 0.0), 1.0, rotation)


class TestTriangleSpec:
    def test_circumradius_matches_side(self):
        rng = RngConfig(51, 0).stream()
        for _ in range(200):
            side = 0.1 + 10.0 * rng.random()
            spec = TriangleSpec((0.0, 0.0), side, 2.0 * math.pi * rng.random())
            assert spec.circumradius * SQRT3 == pytest.approx(side, rel=1e-12)

    def test_centroid_equals_center(self):
        rng = RngConfig(52, 0).stream()
        for _ in range(200):
            center = (rng.random() * 20 - 10, rng.random() * 20 - 10)
            spec = TriangleSpec(center, 1.0 + rng.random(), 2.0 * math.pi * rng.random())
            v = spec.vertices()
            gx = (v[0][0] + v[1][0] + v[2][0]) / 3.0
            gy = (v[0][1] + v[1][1] + v[2][1]) / 3.0
            assert gx == pytest.approx(center[0], abs=1e-9)
            assert gy == pytest.approx(center[1], abs=1e-9)

    def test_rotation_range_enforced(self):
        with pytest.raises(ValueError):
            TriangleSpec((0.0, 0.0), 1.0, -0.1)
        with pytest.raises(ValueError):
            TriangleSpec((0.0, 0.0), 1.0, 2.0 * math.pi)

    def test_side_must_be_positive(self):
        with pytest.raises(ValueError):
            TriangleSpec((0.0, 0.0), 0.0, 0.0)


class TestGridSpec:
    def test_offsets_must_be_in_range(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, -0.25)
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 0.0)
        spec = GridSpec(2.0, 1.5, 0.0)
        assert spec.spacing == 2.0


class TestSegmentCrossesLine:
    def test_interior(self):
        assert segment_crosses_line(0.0, 1.0, 0.5) is True

    def test_half_open_ends(self):
        assert segment_crosses_line(0.0, 1.0, 0.0) is False
        assert segment_crosses_line(0.0, 1.0, 1.0) is True

    def test_order_independent(self):
        assert segment_crosses_line(1.0, 0.0, 0.25) is True
        assert segment_crosses_line(1.0, 0.0, 1.0) is True
        assert segment_crosses_line(1.0, 0.0, 0.0) is False

    def test_degenerate_segment(self):
        assert segment_crosses_line(0.3, 0.3, 0.3) is False


class TestCrossingsPerCast:
    def test_worked_example_centered_grid(self):
        v = make_triangle((0.0, 0.0), 1.0, 0.0)
        assert crossings_per_cast(v, 0.0, 0.25) == (2, 2)
        assert brute_force_tally(v, 0.0, 0.25) == (2, 2)

    def test_worked_example_shifted_grid(self):
        v = make_triangle((0.0, 0.0), 1.0, 0.0)
        assert crossings_per_cast(v, 0.7, 0.7) == (0, 2)
        assert brute_force_tally(v, 0.7, 0.7) == (0, 2)

    @pytest.mark.parametrize(
        "offset_x, offset_y, expected",
        [
            (0.25, 0.25, (2, 2)),
            (0.625, 0.25, (0, 2)),
            (0.75, 0.25, (0, 2)),
            (0.5, 0.25, (2, 2)),
            (0.25, 0.0, (2, 2)),
        ],
        ids=["interior", "outside-extent", "at-min", "at-max", "at-middle-vertex"],
    )
    def test_half_open_rule_at_exact_ties(self, offset_x, offset_y, expected):
        # x extent (-0.25, 0.5] with two vertices at the min; y vertices -0.5, 0, 0.5
        assert crossings_per_cast(DYADIC, offset_x, offset_y) == expected
        assert brute_force_tally(DYADIC, offset_x, offset_y) == expected

    def test_matches_brute_force_on_random_casts(self):
        rotation, offset_x, offset_y = _random_casts(54, 2000)
        v = make_triangle((0.0, 0.0), 1.0, rotation)
        count_x, count_y = crossings_per_cast(v, offset_x, offset_y)
        for i in range(rotation.size):
            expected = brute_force_tally(cast_vertices(v, i), offset_x[i], offset_y[i])
            assert (count_x[i], count_y[i]) == expected
            assert crossings_per_cast(cast_vertices(v, i), offset_x[i], offset_y[i]) == expected

    def test_per_family_counts_even_and_bounded(self):
        rotation, offset_x, offset_y = _random_casts(55, 2000)
        count_x, count_y = crossings_per_cast(make_triangle((0.0, 0.0), 1.0, rotation), offset_x, offset_y)
        assert set(count_x.tolist()) == {0, 2}
        assert set(count_y.tolist()) == {0, 2}
        assert set((count_x + count_y).tolist()) <= {0, 2, 4}

    def test_rotation_periodicity(self):
        rotation, offset_x, offset_y = _random_casts(56, 500)
        a = crossings_per_cast(make_triangle((0.0, 0.0), 1.0, rotation), offset_x, offset_y)
        b = crossings_per_cast(make_triangle((0.0, 0.0), 1.0, rotation + THIRD_TURN), offset_x, offset_y)
        np.testing.assert_array_equal(a, b)

    def test_translation_covariance(self):
        rotation, offset_x, offset_y = _random_casts(57, 500)
        at_origin = crossings_per_cast(make_triangle((0.0, 0.0), 1.0, rotation), offset_x, offset_y)
        shifted = crossings_per_cast(make_triangle((1.0, 0.0), 1.0, rotation), offset_x, offset_y)
        np.testing.assert_array_equal(at_origin, shifted)

    def test_wide_spacing_no_lines_in_extent(self):
        v = make_triangle((0.0, 0.0), 1.0, 0.1)
        assert crossings_per_cast(v, 5.0, 5.0, spacing=10.0) == (0, 0)

    def test_broadcasts_over_a_lattice(self):
        theta = np.array([[0.0], [0.3]])
        offsets = np.array([0.0, 0.25, 0.7])
        count_x, count_y = crossings_per_cast(make_triangle((0.0, 0.0), 1.0, theta), offsets, offsets)
        assert count_x.shape == count_y.shape == (2, 3)
        for i, t in enumerate(theta[:, 0]):
            v = make_triangle((0.0, 0.0), 1.0, float(t))
            for j, off in enumerate(offsets):
                assert (count_x[i, j], count_y[i, j]) == crossings_per_cast(v, off, off)


class TestCrossingsAtTies:
    """Property tests of the counter on casts built to hit the half-open rule's ties.

    A line through the offset itself, or any line when the offset is 0 on
    a unit grid, sits at an exact position.  A second vertex within rounding
    of another line (a double tie: the float triangle spans about a whole
    spacing) is decided by how ``hi - offset`` or ``offset + k`` rounds in a
    float count, so the counter is checked against ``exact_tally``, which
    decides every tie of the same float vertices in rational arithmetic.
    """

    @example(rotation=2.0943951023931953, vertex=0, axis=1, other_offset=0.0)  # (2, 4), not (2, 2)
    @given(
        rotation=st.sampled_from(TIE_ROTATIONS),
        vertex=st.integers(0, 2),
        axis=st.integers(0, 1),
        other_offset=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_vertex_coordinate_as_offset(self, rotation, vertex, axis, other_offset):
        v = make_triangle((0.0, 0.0), 1.0, rotation)
        offsets = [other_offset, other_offset]
        offsets[axis] = float(v[vertex][axis])
        assert crossings_per_cast(v, *offsets) == exact_tally(v, *offsets)

    @given(
        rotation=st.sampled_from(TIE_ROTATIONS) | st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        cx=st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-4.0, 4.0),
        cy=st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-4.0, 4.0),
    )
    def test_offset_zero(self, rotation, cx, cy):
        v = make_triangle((cx, cy), 1.0, rotation)
        assert crossings_per_cast(v, 0.0, 0.0) == brute_force_tally(v, 0.0, 0.0) == exact_tally(v, 0.0, 0.0)

    @given(
        rotation=st.sampled_from(TIE_ROTATIONS),
        offset_x=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
        offset_y=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_tie_rotations_any_offset(self, rotation, offset_x, offset_y):
        v = make_triangle((0.0, 0.0), 1.0, rotation)
        count_x, count_y = crossings_per_cast(v, offset_x, offset_y)
        assert (count_x, count_y) == exact_tally(v, offset_x, offset_y)
        # Two lines of a family cross the cast only where its float extent spans a whole spacing.
        for count, axis in ((count_x, 0), (count_y, 1)):
            coords = [float(p[axis]) for p in v]
            assert count in (0, 2) or (count == 4 and max(coords) - min(coords) >= 1.0)

    @pytest.mark.parametrize("rotation", TIE_ROTATIONS)
    def test_every_vertex_and_its_neighbouring_floats_as_offsets(self, rotation):
        # Each vertex coordinate, whole spacings from it and a few floats on
        # either side as the offset: every double tie of the tie rotations.
        v = make_triangle((0.0, 0.0), 1.0, rotation)
        for axis in (0, 1):
            for p in v:
                for k in (-1.0, 0.0, 1.0):
                    offset = float(p[axis]) + k
                    for _ in range(3):
                        offset = math.nextafter(offset, -math.inf)
                    for _ in range(7):
                        offsets = [0.5, 0.5]
                        offsets[axis] = offset
                        assert crossings_per_cast(v, *offsets) == exact_tally(v, *offsets)
                        offset = math.nextafter(offset, math.inf)


def _float64_counts(rotation, offset_x, offset_y, scale=1.0):
    """The exact path the filter must reproduce, on the unit casts scaled up by ``scale``: side, offsets and spacing alike."""
    return crossings_per_cast(make_triangle((0.0, 0.0), scale, rotation), scale * offset_x, scale * offset_y, scale)


class TestFilteredCrossings:
    """The float32 filter against the float64 path it stands in for."""

    @pytest.mark.parametrize("spacing", [1.0, 3.7])
    def test_equals_the_float64_path_cast_by_cast(self, spacing):
        # 5 x 2**20 casts per spacing, drawn a block of 2**18 at a time.  Scaled
        # up to ``spacing``, a cast may round to the other side of a line only
        # within the guard of it, so the general counter must agree on every
        # cast the filter does not flag near, and at spacing 1 on all of them.
        for seed in (0, 1, 2, 3, 7):
            rng = RngConfig(seed, 0).stream()
            for _ in range(4):
                rotation, offset_x, offset_y = cast_columns(rng.random(3 << 18))
                count_x, count_y, near = filtered_crossings(rotation, offset_x, offset_y, filter_workspace(len(rotation)))
                exact_x, exact_y = _float64_counts(rotation, offset_x, offset_y, spacing)
                same = (count_x == exact_x) & (count_y == exact_y)
                assert same.all() if spacing == 1.0 else same[~near].all()

    def test_few_casts_fall_back(self):
        # Four quantities per cast, each near a line with probability
        # 2 * FILTER_GUARD: about 0.2% of casts.
        rotation, offset_x, offset_y = _random_casts(59, 1 << 20)
        near = filtered_crossings(rotation, offset_x, offset_y, filter_workspace(len(rotation)))[2]
        assert 0.001 < near.mean() < 0.01

    def test_float32_error_is_far_inside_the_guard(self):
        # 10 * 2**20 rotations evenly spaced over [0, 2*pi), each with a random
        # offset pair: the float32 hi/lo less the offset against float64.
        n, chunk, worst = 10 << 20, 1 << 20, 0.0
        offsets = RngConfig(60, 0).stream()
        for start in range(0, n, chunk):
            rotation = np.arange(start, start + chunk) * (2.0 * math.pi / n)
            offset_x, offset_y = offsets.random(chunk), offsets.random(chunk)
            (x0, y0), (x1, y1), (x2, y2) = make_triangle((0.0, 0.0), 1.0, rotation)
            exact = []
            for coords, offset in (((x0, x1, x2), offset_x), ((y0, y1, y2), offset_y)):
                exact += [np.maximum.reduce(coords) - offset, np.minimum.reduce(coords) - offset]
            for got, want in zip(float32_extents(rotation, offset_x, offset_y, filter_workspace(chunk)[0]), exact):
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < FILTER_GUARD / 64, f"float32 error {worst:.3g} against a guard of {FILTER_GUARD:.3g}"

    @settings(deadline=None)
    @given(
        rotation=st.sampled_from(TIE_ROTATIONS),
        vertex=st.integers(0, 2),
        axis=st.integers(0, 1),
        shift=st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 2 * FILTER_GUARD, -2 * FILTER_GUARD]),
        other_offset=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
        spacing=st.sampled_from([1.0, 3.7]),
    )
    def test_near_a_vertex_on_a_line(self, rotation, vertex, axis, shift, other_offset, spacing):
        # The line through the offset passes ``shift`` from a vertex; within
        # the guard of an extreme vertex the cast must fall back.  Scaled up
        # to ``spacing``, a cast not flagged near counts the same.
        v = make_triangle((0.0, 0.0), 1.0, rotation)
        offsets = [other_offset, other_offset]
        offsets[axis] = (float(v[vertex][axis]) + shift) % 1.0
        assume(offsets[axis] < 1.0)
        cast = [np.array([rotation]), np.array([offsets[0]]), np.array([offsets[1]])]
        count_x, count_y, near = filtered_crossings(*cast, filter_workspace(1))
        assert (count_x[0], count_y[0]) == tuple(c[0] for c in _float64_counts(*cast))
        if not near[0]:
            assert (count_x[0], count_y[0]) == tuple(c[0] for c in _float64_counts(*cast, spacing))
        coords = [float(p[axis]) for p in v]
        if abs(shift) < FILTER_GUARD and coords[vertex] in (min(coords), max(coords)):
            assert near[0]


# A needle length drawn once from a fixed stream, beside the lengths 0.5 and 1.
DRAWN_RATIO = 0.05 + 0.95 * float(RngConfig(63, 0).stream().random())


class TestFilteredHits:
    """The needle's float32 filter against the float64 comparison it stands in for."""

    @pytest.mark.parametrize("ratio", [0.5, 1.0, DRAWN_RATIO])
    def test_equals_the_float64_comparison_drop_by_drop(self, ratio):
        u = RngConfig(62, 0).stream().random(2 << 20).reshape(-1, 2)
        hit, _, near = filtered_hits(u[:, 0], u[:, 1], ratio, filter_workspace(len(u)))
        assert hit.dtype == np.float32
        assert np.array_equal(hit, ratio / 2 * np.sin(math.pi * u[:, 1]) >= u[:, 0] / 2)
        # A gap within FILTER_GUARD of 0: about 4 * FILTER_GUARD of the drops, or less.
        assert 0 < near.mean() < 0.002

    @pytest.mark.parametrize("ratio", [0.5, 1.0, DRAWN_RATIO])
    def test_float32_gap_error_is_far_inside_the_guard(self, ratio):
        # A 1024 x 1024 grid of (distance, angle) uniforms on [0, 1), in slabs
        # of 256 angles: the float32 gap against the float64 one.
        grid, worst = np.arange(1024) / 1024, 0.0
        for first in range(0, 1024, 256):
            u_angle, u_distance = (a.ravel() for a in np.meshgrid(grid[first : first + 256], grid, indexing="ij"))
            _, gap, _ = filtered_hits(u_distance, u_angle, ratio, filter_workspace(len(u_angle)))
            exact = ratio / 2 * np.sin(math.pi * u_angle) - u_distance / 2
            worst = max(worst, float(np.max(np.abs(gap - exact))))
        assert worst < FILTER_GUARD / 64, f"float32 error {worst:.3g} against a guard of {FILTER_GUARD:.3g}"

    def test_near_drops_are_decided_in_float64(self):
        # Drops whose distance sits a few float64 ulps from the needle's reach:
        # the float32 gap cannot tell them apart, the float64 comparison can.
        u_angle = np.linspace(0.01, 0.99, 1000)
        reach = 0.5 * np.sin(math.pi * u_angle)
        u_distance = np.concatenate([np.nextafter(2 * reach, 0.0), 2 * reach, np.nextafter(2 * reach, 1.0)])
        u_angle = np.tile(u_angle, 3)
        hit, _, near = filtered_hits(u_distance, u_angle, 1.0, filter_workspace(len(u_angle)))
        assert near.all()
        assert np.array_equal(hit, 0.5 * np.sin(math.pi * u_angle) >= u_distance / 2)
        assert 0 < hit.sum() < len(hit)
