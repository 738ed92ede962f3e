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
    average at a fraction of the evaluations.  The whole rotation x offset
    lattice is counted in one ``crossings_per_cast`` call.
    """
    if grid_points_theta < 8 or grid_points_offset < 8:
        raise ValueError("lattice needs at least 8 points per dimension")
    d_theta = THIRD_TURN / grid_points_theta
    theta = theta_origin + (np.arange(grid_points_theta) + 0.5) * d_theta
    offsets = np.arange(grid_points_offset) / grid_points_offset
    vertices = make_triangle((0.0, 0.0), 1.0, theta[:, np.newaxis])
    count_x, count_y = crossings_per_cast(vertices, offsets, offsets)
    # The float total depends on summation order: add per-theta means left to right.
    total = 0.0
    for crossings in (count_x + count_y).sum(axis=1).tolist():
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
