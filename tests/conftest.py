"""Shared test helpers: a scripted RNG stand-in, vertex, brute-force and
exact-rational crossing references that share no geometry or counting code
with the package, and triangle and needle oracles in ``math`` alone."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# In exact arithmetic, multiples of pi/6 give two vertices (or a vertex and
# the center) a shared coordinate and an axis extent of exactly one side;
# multiples of pi/4 put a vertex on a diagonal, with equal x and y.
TIE_ROTATIONS = sorted({k * math.pi / 6.0 for k in range(12)} | {k * math.pi / 4.0 for k in range(8)})


class StubStream:
    """Replays a fixed uniform sequence through the Generator interface."""

    def __init__(self, values):
        self._values = [float(v) for v in values]
        self._pos = 0

    def random(self, size=None):
        if size is None:
            value = self._values[self._pos]
            self._pos += 1
            return value
        chunk = self._values[self._pos : self._pos + size]
        if len(chunk) != size:
            raise IndexError("stub stream exhausted")
        self._pos += size
        return np.asarray(chunk, dtype=np.float64)


def reference_vertices(center, side: float, rotation: float):
    """Vertex k at angle ``rotation + k*2*pi/3`` on the circumcircle, each
    from its own ``math.cos``/``math.sin`` pair."""
    cx, cy = center
    r = side / math.sqrt(3.0)
    angles = [rotation + k * 2.0 * math.pi / 3.0 for k in range(3)]
    return tuple((cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles)


def segment_crosses_line(p_coord: float, q_coord: float, line_pos: float) -> bool:
    """Half-open crossing test for one side: ``min(p, q) < line_pos <= max(p, q)``."""
    if p_coord <= q_coord:
        return p_coord < line_pos <= q_coord
    return q_coord < line_pos <= p_coord


def brute_force_tally(v, offset_x: float, offset_y: float, spacing: float = 1.0) -> tuple[int, int]:
    """Count crossings side by side: every actual triangle edge against every
    grid line in a generous window around the cast."""
    counts = []
    for axis, offset in ((0, offset_x), (1, offset_y)):
        coords = [float(p[axis]) for p in v]
        lo, hi = min(coords), max(coords)
        k_lo = math.floor((lo - offset) / spacing) - 2
        k_hi = math.ceil((hi - offset) / spacing) + 2
        count = 0
        for k in range(k_lo, k_hi + 1):
            pos = offset + k * spacing
            for a, b in ((0, 1), (1, 2), (2, 0)):
                if segment_crosses_line(coords[a], coords[b], pos):
                    count += 1
        counts.append(count)
    return counts[0], counts[1]


def exact_tally(v, offset_x: float, offset_y: float) -> tuple[int, int]:
    """Crossings of the float vertices ``v`` on the unit grid, side by side, in exact rational arithmetic.

    Every vertex coordinate and offset is taken as the exact value of its
    float, and each line ``offset + k`` as an exact rational, so no tie is
    decided by rounding.
    """
    counts = []
    for axis, offset in ((0, offset_x), (1, offset_y)):
        coords = [Fraction(float(p[axis])) for p in v]
        offset = Fraction(float(offset))
        count = 0
        for k in range(math.floor(min(coords) - offset), math.ceil(max(coords) - offset) + 1):
            count += sum(segment_crosses_line(coords[a], coords[b], offset + k) for a, b in ((0, 1), (1, 2), (2, 0)))
        counts.append(count)
    return counts[0], counts[1]


def expected_crossings_given_rotation(theta: float) -> float:
    """Expected crossings per cast of the unit triangle at rotation ``theta`` on the unit grid, over uniform offsets.

    Cauchy-Crofton: lines of one family, at unit spacing and a uniform
    offset, straddle a convex body as many times on average as its
    projection width across them, and each straddled line crosses two
    sides.  So the rate is ``2 * (w_x + w_y)``, with ``w`` the widths of
    ``reference_vertices`` along x and y.
    """
    v = reference_vertices((0.0, 0.0), 1.0, theta)
    widths = [max(p[axis] for p in v) - min(p[axis] for p in v) for axis in (0, 1)]
    return 2.0 * math.fsum(widths)


def cast_vertices(v, i: int):
    """The vertices of cast ``i`` of a block built by ``make_triangle``."""
    return tuple((float(x[i]), float(y[i])) for x, y in v)


def needle_hit_probability(ratio: float, points: int = 10_000) -> float:
    """A needle drop's hit probability, ``ratio * sin(phi)`` averaged over the angle by the midpoint rule.

    Given the angle ``phi``, uniform on [0, pi), a needle of length ``ratio``
    (at most the unit spacing) whose center lies uniformly within 1/2 of the
    nearest line hits it with probability ``ratio * sin(phi)``.  The rule's
    error is below ``ratio * (pi / points)**2 / 24``, under 5e-9 at 10000 points.
    """
    step = math.pi / points
    return ratio * math.fsum(math.sin((k + 0.5) * step) for k in range(points)) / points
