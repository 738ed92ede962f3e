"""Monte Carlo pi estimation by casting shapes onto a lined or tiled floor.

The classic baseline drops a needle on parallel lines; the main estimator
casts an equilateral triangle (side equal to the tile size) onto a square
tiling and counts grid-line crossings, giving pi ~= 12 * trials / crossings.
"""

from .errors import DegenerateSampleError
from .estimators import (
    BatchResult,
    EstimateSummary,
    SplitRun,
    SummaryStats,
    Tally,
    estimate_pi_needle,
    estimate_pi_triangle,
    run_batch,
    run_needle_trials,
    run_triangle_trials,
    summarize,
)
from .geometry import GridSpec, TriangleSpec, crossings_per_cast, make_triangle
from .oracle import (
    expected_crossings_closed_form,
    expected_crossings_quadrature,
    mean_width_identity,
)
from .render import (
    CastScene,
    HistogramScene,
    Viewport,
    filename_for_cast,
    render_cast,
    render_histogram,
    scene_for_cast,
)
from .sampling import CastSample, RngConfig, draw_casts, sample_cast

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "CastSample",
    "CastScene",
    "DegenerateSampleError",
    "EstimateSummary",
    "GridSpec",
    "HistogramScene",
    "RngConfig",
    "SplitRun",
    "SummaryStats",
    "Tally",
    "TriangleSpec",
    "Viewport",
    "crossings_per_cast",
    "draw_casts",
    "estimate_pi_needle",
    "estimate_pi_triangle",
    "expected_crossings_closed_form",
    "expected_crossings_quadrature",
    "filename_for_cast",
    "make_triangle",
    "mean_width_identity",
    "render_cast",
    "render_histogram",
    "run_batch",
    "run_needle_trials",
    "run_triangle_trials",
    "sample_cast",
    "scene_for_cast",
    "summarize",
]
