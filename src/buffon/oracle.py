"""Deterministic validation of the crossing-rate constant 12/pi.

Two independent, non-stochastic routes to the expected crossings per cast:

* a lattice average of the actual per-cast counter over rotations and grid
  offsets, and
* the mean-width identity (a convex body's rotational average projection
  width is perimeter/pi, here 3*side/pi).

The triangle estimator's factor 12 is exactly ``2 families * 2 crossings
per straddled line * mean width / spacing`` and both routes must agree.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedConfigurationError
from .geometry import THIRD_TURN, crossings_per_cast, make_triangle

# Lattice points counted at once: the lattice is counted in slabs of at most
# this many points, which bounds the oracle's memory whatever the resolution.
_SLAB_POINTS = 1 << 20
# Largest lattice counted: 2^40 points take hours here, and held whole, as
# numpy would, they need tens of TiB.
_MAX_POINTS = 1 << 40


def expected_crossings_quadrature(
    grid_points_theta: int = 360,
    grid_points_offset: int = 200,
    *,
    theta_origin: float = 0.0,
) -> float:
    """Average crossings per cast over a deterministic rotation/offset lattice.

    Rotation runs over the cell midpoints of one symmetry period
    [theta_origin, theta_origin + 2*pi/3); each offset runs over the uniform
    lattice {k * spacing / n}.  The x count depends only on (rotation,
    offset_x) and the y count only on (rotation, offset_y), so pairing the
    two offset lattices point-for-point reproduces the full 3D lattice
    average at a fraction of the evaluations.  The lattice is counted in
    slabs of at most ``_SLAB_POINTS`` points: whole rotation rows where a row
    fits in a slab, otherwise pieces of one row.  A row's crossing total is an
    integer summed over its pieces, so the slab size never changes the
    result.  A lattice of more than ``_MAX_POINTS`` points raises MemoryError.
    """
    if grid_points_theta < 8 or grid_points_offset < 8:
        raise ValueError("lattice needs at least 8 points per dimension")
    points = grid_points_theta * grid_points_offset
    if points > _MAX_POINTS:
        raise MemoryError(
            f"a lattice of {points} points ({points * 8 / 2**40:.0f} TiB per float array "
            f"held whole) is more than the {_MAX_POINTS} points the oracle counts"
        )
    d_theta = THIRD_TURN / grid_points_theta
    columns = min(grid_points_offset, _SLAB_POINTS)
    rows = _SLAB_POINTS // columns
    # The float total depends on summation order: add per-theta means left to right.
    total = 0.0
    for first in range(0, grid_points_theta, rows):
        theta = theta_origin + (np.arange(first, min(first + rows, grid_points_theta)) + 0.5) * d_theta
        vertices = make_triangle((0.0, 0.0), 1.0, theta[:, np.newaxis])
        row_crossings = np.zeros(theta.size, dtype=np.int64)
        for start in range(0, grid_points_offset, columns):
            offsets = np.arange(start, min(start + columns, grid_points_offset)) / grid_points_offset
            count_x, count_y = crossings_per_cast(vertices, offsets, offsets)
            row_crossings += (count_x + count_y).sum(axis=1)
        for crossings in row_crossings.tolist():
            total += crossings / grid_points_offset
    return total / grid_points_theta


def mean_width_identity(side: float) -> float:
    """Rotational average of the triangle's projection width: 3*side/pi.

    This is the perimeter/pi rule for convex bodies applied to the
    equilateral triangle of perimeter 3*side.
    """
    if not side > 0:
        raise ValueError(f"side must be positive, got {side}")
    return 3.0 * side / math.pi


def expected_crossings_closed_form(side: float, spacing: float) -> float:
    """Expected crossings per cast: 2 * (mean width / spacing) * 2 = 12/pi.

    Each line family straddles the triangle with expected multiplicity
    mean width / spacing, each straddled line is crossed twice, and there
    are two families.  The same argument (Cauchy-Crofton) gives
    ``12 * side / (pi * spacing)`` at any ratio; this function covers
    side == spacing only, the one configuration the package models.
    """
    if side != spacing:
        raise UnsupportedConfigurationError(
            f"triangle side ({side}) must equal grid spacing ({spacing})"
        )
    return 2.0 * (mean_width_identity(side) / spacing) * 2.0
