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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0
TWO_PI = 2.0 * math.pi
THIRD_TURN = TWO_PI / 3.0

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
    exactly two sides of the triangle.
    """
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    lines = np.floor((hi - offset) / spacing) - np.floor((lo - offset) / spacing)
    return 2 * lines.astype(np.int64)
