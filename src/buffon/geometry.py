"""Equilateral-triangle casts on a square grid, and their line crossings.

A cast triangle is built from its circumcircle: vertex k sits at angle
``rotation + k * 2*pi/3`` on the circle of radius ``side / sqrt(3)`` around
the center.  Only vertex 0 takes trig calls, ``(c, s) = r * (cos(rotation),
sin(rotation))``; the angle-addition identity with ``cos(2*pi/3) = -1/2``
and ``sin(2*pi/3) = h = sqrt(3)/2`` gives the other two as ``(-c/2 - h*s,
-s/2 + h*c)`` and ``(-c/2 + h*s, -s/2 - h*c)``, so a cast costs one
cos/sin pair.  Crossings are counted by one elementwise function,
``crossings_per_cast``, for a single cast or a whole block of casts.  It
uses a half-open rule: a grid line at ``p`` is straddled iff ``lo < p <=
hi`` over the vertex coordinates, and then crosses exactly two sides (a
side whose endpoint coordinates sort to ``(a, b)`` crosses ``p`` iff ``a <
p <= b``).  The rule makes vertex-on-line ties deterministic, so degenerate
casts are counted, never resampled.

``filtered_crossings`` gives the same counts for blocks of casts at a
fraction of the cost, as a floating-point filter in the way of Shewchuk's
adaptive predicates.  It builds unit triangles in float32, on the unit
grid every trial is cast on, and counts by the same floor difference.  A
cast where ``hi - offset`` or ``lo - offset`` lies within ``FILTER_GUARD``
(2**-12) of an integer, in either family, is *near* a line; about 0.2% of
random casts are, and only those are counted again by the float64 path
(``make_triangle`` + ``crossings_per_cast``).  The other counts are exact:
rounding is monotone, so ``floor(hi - offset)`` is the largest floor over
the vertices, and every float32 quantity lies within 1e-6 of its float64
value (the error budget is next to ``FILTER_GUARD``), so a quantity more
than the guard away from every integer has the same floor in both.

``filtered_hits`` is the needle's filter, with the same guard.  In a
``filter_workspace`` that its caller keeps, either filter allocates only
for the near casts: fresh block-sized temporaries cost up to 11.5k page
faults per 1e6 casts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0
TWO_PI = 2.0 * math.pi
THIRD_TURN = TWO_PI / 3.0

# Guard of the float32 filter in ``filtered_crossings``, on the unit grid.
# A float32 ``hi - offset`` or ``lo - offset`` differs from its
# float64 value by less than the sum of: rounding the rotation in [0, 2*pi)
# to float32 (2**-22 rad, times the circumradius 1/sqrt(3): 1.4e-7);
# float32 cos/sin, within about 2 ulps (2**-23 each, times 1/sqrt(3) and
# at most 1/2 + sqrt(3)/2 on the other vertices: 9.4e-8); about five float32
# operations on values below 2, half an ulp (2**-24) each (3.0e-7); and
# rounding the offset to float32 (3.0e-8).  The float64 path adds ~1e-15.
# Together that is under 6e-7, against a guard of 2.4e-4; the fractional
# part that the filter compares with the guard is itself off by at most
# 2**-23.  ``tests/test_geometry.py`` measures the error below
# FILTER_GUARD / 64 on a dense rotation grid.
# The needle's float32 gap in ``filtered_hits`` is off by under 3e-7: 6e-8
# from rounding the angle, 6e-8 from the float32 sin and 7.5e-8 from rounding
# the half-length and the distance and two operations, all below 1/2.
FILTER_GUARD = 2.0**-12

Point = tuple[float, float]
Vertices = tuple[Point, Point, Point]


@dataclass(frozen=True)
class TriangleSpec:
    """An equilateral triangle cast: center, side length, rotation angle.

    The rotation is the angle of vertex 0 on the circumcircle and must lie
    in [0, 2*pi); samplers produce angles in that range.
    """

    center: Point
    side: float
    rotation: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"side must be a positive finite length, got {self.side}")
        if not (0.0 <= self.rotation < TWO_PI):
            raise ValueError(f"rotation must lie in [0, 2*pi), got {self.rotation}")

    @property
    def circumradius(self) -> float:
        return self.side / SQRT3

    def vertices(self) -> Vertices:
        return make_triangle(self.center, self.side, self.rotation)


@dataclass(frozen=True)
class GridSpec:
    """Square tiling with lines at ``offset + k * spacing`` along each axis."""

    spacing: float
    offset_x: float
    offset_y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be a positive finite length, got {self.spacing}")
        for name in ("offset_x", "offset_y"):
            value = getattr(self, name)
            if not 0.0 <= value < self.spacing:
                raise ValueError(f"{name} must lie in [0, spacing), got {value}")


def make_triangle(center: Point, side: float, rotation: float | np.ndarray) -> Vertices:
    """Vertices of the equilateral triangle inscribed in its circumcircle.

    Vertex k is ``center + r * (cos(rotation + k*2*pi/3),
    sin(rotation + k*2*pi/3))`` with ``r = side / sqrt(3)``.  One cos/sin
    pair gives vertex 0, ``(c, s)``; rotating it by a third turn twice gives
    ``(-c/2 - h*s, -s/2 + h*c)`` and ``(-c/2 + h*s, -s/2 - h*c)`` with ``h =
    sqrt(3)/2``.  The center is then added to each vertex.  Vertices are
    returned in construction order, not sorted.  ``rotation`` is a float or
    an array of rotations, one cast each; any finite rotation is accepted.
    """
    if not (math.isfinite(side) and side > 0):
        raise ValueError(f"side must be a positive finite length, got {side}")
    if not np.all(np.isfinite(rotation)):
        raise ValueError(f"rotation must be finite, got {rotation}")
    cx, cy = center
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"center must be finite, got {center}")
    r = side / SQRT3
    c = r * np.cos(rotation)
    s = r * np.sin(rotation)
    half_c, half_s = 0.5 * c, 0.5 * s
    hc, hs = HALF_SQRT3 * c, HALF_SQRT3 * s
    return (
        (cx + c, cy + s),
        (cx + (-half_c - hs), cy + (-half_s + hc)),
        (cx + (-half_c + hs), cy + (-half_s - hc)),
    )


def crossings_per_cast(
    v: Vertices, offset_x: float | np.ndarray, offset_y: float | np.ndarray, spacing: float = 1.0
):
    """Grid-line crossings of a cast, per line family: ``(count_x, count_y)``.

    Works elementwise: vertex coordinates and offsets may be floats or
    broadcastable arrays of casts.  Vertical lines sit at ``offset_x +
    k*spacing`` and are counted against the x coordinates, horizontal lines
    likewise against y.
    """
    (x0, y0), (x1, y1), (x2, y2) = v
    return (
        _axis_crossings(x0, x1, x2, offset_x, spacing),
        _axis_crossings(y0, y1, y2, offset_y, spacing),
    )


def _axis_crossings(a, b, c, offset, spacing):
    """Twice the number of lines ``offset + k*spacing`` with ``lo < p <= hi``.

    ``lo`` and ``hi`` are the extreme vertex coordinates, so the count of
    straddled lines is a difference of floors; each straddled line crosses
    exactly two sides of the triangle.  The floors are of the exact
    differences: ``x - rint(x)`` is exact (Sterbenz's lemma), so on the unit
    grid even a cast with two vertices on lines is counted exactly.
    """
    lo = np.minimum(np.minimum(a, b), c) / spacing
    hi = np.maximum(np.maximum(a, b), c) / spacing
    offset = np.divide(offset, spacing)
    part = offset - np.rint(offset)
    part = np.where(part == -0.5, 0.5, part)  # in (-1/2, 1/2], less than 1 from any x - rint(x)
    whole_hi, whole_lo = np.rint(hi), np.rint(lo)
    # floor(x - offset) is rint(x) less the offset's whole number and 1 where x - rint(x) < part, which
    # heaviside gives in float64: a bool operand would have numpy buffer a cast, 128 KB of peak RSS.
    below_hi, below_lo = np.heaviside(part - (hi - whole_hi), 0.0), np.heaviside(part - (lo - whole_lo), 0.0)
    lines = whole_hi - whole_lo - below_hi + below_lo
    return 2 * lines.astype(np.int64)


def filtered_crossings(rotation, offset_x, offset_y, out):
    """Crossings of a block of casts, ``(count_x, count_y, near)``, through a float32 filter.

    The casts are unit triangles centered at the origin, at angles
    ``rotation`` in [0, 2*pi), on unit grids with offsets in [0, 1), as
    ``sampling.cast_columns`` makes them.  ``count_x`` and ``count_y`` equal,
    cast by cast, ``crossings_per_cast(make_triangle((0, 0), 1.0, rotation),
    offset_x, offset_y)`` (as float32 arrays); ``near`` marks the casts
    within ``FILTER_GUARD`` of a line, whose counts come from that float64
    path.

    ``out`` is a ``filter_workspace`` for at least as many casts; every
    per-cast array, the results too, is written there.
    """
    m = len(rotation)
    rows, near = out[0][:, :m], out[1][:m]
    extents = float32_extents(rotation, offset_x, offset_y, rows)
    # |fraction - 1/2| is 1/2 less the distance to the nearest integer, so a
    # cast is near a line iff its largest such value exceeds 1/2 - FILTER_GUARD.
    counts, centred = (rows[1], rows[6]), None
    for hi, lo, count in ((*extents[:2], counts[0]), (*extents[2:], counts[1])):
        np.floor(hi, out=count)
        floor_lo = np.floor(lo, out=rows[2])
        for value, floor in ((hi, count), (lo, floor_lo)):
            value -= floor
            value -= 0.5
            np.abs(value, out=value)
            centred = value if centred is None else np.maximum(centred, value, out=centred)
        count -= floor_lo
        count *= 2
    np.greater(centred, 0.5 - FILTER_GUARD, out=near)
    idx = np.flatnonzero(near)
    v = make_triangle((0.0, 0.0), 1.0, rotation[idx])
    counts[0][idx], counts[1][idx] = crossings_per_cast(v, offset_x[idx], offset_y[idx])
    return counts[0], counts[1], near


def filtered_hits(u_distance, u_angle, ratio, out):
    """Needle hits of a block of drops, ``(hit, gap, near)``, through a float32 filter.

    A drop's center lies ``u_distance / 2`` from the nearest unit-spaced
    line, at ``pi * u_angle`` to it; ``hit`` is 1.0 where ``ratio/2 *
    sin(pi*u_angle) >= u_distance/2`` in float64.  ``near`` marks a float32
    ``gap`` of the two sides within ``FILTER_GUARD`` of 0, decided again in
    float64.  ``out`` is a ``filter_workspace`` for at least as many drops.
    """
    m, half_len = len(u_distance), ratio / 2.0
    (gap, other, hit), near = out[0][:3, :m], out[1][:m]
    np.multiply(u_angle, math.pi, out=gap, casting="same_kind")
    np.sin(gap, out=gap)
    gap *= half_len
    gap -= np.multiply(u_distance, 0.5, out=other, casting="same_kind")
    np.greater_equal(gap, 0, out=hit)
    idx = np.flatnonzero(np.less(np.abs(gap, out=other), FILTER_GUARD, out=near))
    hit[idx] = half_len * np.sin(math.pi * u_angle[idx]) >= 0.5 * u_distance[idx]
    return hit, gap, near


def filter_workspace(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for either filter on up to m casts or drops: seven float32 rows and a boolean row."""
    return np.empty((7, m), dtype=np.float32), np.empty(m, dtype=bool)


def float32_extents(rotation, offset_x, offset_y, out):
    """The filter's float32 ``(hi_x - offset_x, lo_x - offset_x, hi_y - offset_y, lo_y - offset_y)``.

    For the unit casts of ``filtered_crossings``.  The vertices are built as
    ``make_triangle`` builds them, in float32, and ``hi``/``lo`` are their
    largest and smallest coordinates.  The results are rows of ``out``, at
    least six float32 rows as long as ``rotation``; rows 1 and 2 end free.
    """
    # Python float constants act in float32 on float32 arrays.
    c = out[0]
    np.copyto(c, rotation, casting="same_kind")
    s = np.sin(c, out=out[1])
    np.cos(c, out=c)
    c *= 1.0 / SQRT3
    s *= 1.0 / SQRT3
    # The y axis needs c only as |h*c|, so that goes into c itself.
    x_axis = _float32_axis(c, s, offset_x, out[2], out[3], out[4])
    return (*x_axis, *_float32_axis(s, c, offset_y, out[2], c, out[5]))


def _float32_axis(a, b, offset, half_a, hb, hi):
    """Extremes of the coordinates ``a``, ``-a/2 - h*b`` and ``-a/2 + h*b``, less the offset.

    The last two are ``-a/2 -/+ |h*b|`` in some order, so their larger is
    ``|h*b| - a/2`` and their smaller ``-(|h*b| + a/2)``, rounded alike.
    Writes into the rows ``half_a``, ``hb`` (may be ``b``; ends as ``lo``) and ``hi``.
    """
    np.multiply(a, 0.5, out=half_a)
    np.multiply(b, HALF_SQRT3, out=hb)
    np.abs(hb, out=hb)
    np.subtract(hb, half_a, out=hi)
    np.maximum(hi, a, out=hi)
    lo = np.add(hb, half_a, out=hb)
    np.negative(lo, out=lo)
    np.minimum(lo, a, out=lo)
    np.copyto(half_a, offset, casting="same_kind")
    hi -= half_a
    lo -= half_a
    return hi, lo
