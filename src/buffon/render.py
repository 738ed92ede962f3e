"""Dependency-free SVG output for cast snapshots and batch histograms.

Documents are plain generated text with no timestamps and coordinates
rounded to a fixed number of decimals, so rendering the same scene twice
yields byte-identical bytes.  World axes map directly onto pixel axes
(y grows downward on screen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import GridSpec, TriangleSpec, Vertices

CANVAS_PX = 400

HIST_WIDTH = 640
HIST_HEIGHT = 400
HIST_MARGIN_LEFT = 60
HIST_MARGIN_RIGHT = 20
HIST_MARGIN_TOP = 40
HIST_MARGIN_BOTTOM = 60


@dataclass(frozen=True)
class CastScene:
    """One cast ready to draw: triangle, visible grid lines, and the square world window ``x0, y0, span``."""

    vertices: Vertices
    x_lines: tuple[float, ...]
    y_lines: tuple[float, ...]
    x0: float
    y0: float
    span: float


@dataclass(frozen=True)
class HistogramScene:
    """Histogram bins plus the caption mean."""

    bins: tuple[tuple[float, float, int], ...]
    mean: float

    def __post_init__(self) -> None:
        if len(self.bins) == 0:
            raise ValueError("histogram needs at least one bin")


def grid_lines_in_window(offset: float, spacing: float, lo: float, hi: float) -> tuple[float, ...]:
    """All grid-line positions offset + k*spacing inside [lo, hi]."""
    positions = []
    k = math.ceil((lo - offset) / spacing)
    while True:
        pos = offset + k * spacing
        if pos > hi:
            return tuple(positions)
        if pos >= lo:
            positions.append(pos)
        k += 1


def scene_for_cast(tri: TriangleSpec, grid: GridSpec) -> CastScene:
    """Frame a cast with its circumcircle spanning the canvas.

    The world window is the square of side 2*circumradius centered on the
    triangle; every grid line inside the window is included.
    """
    r = tri.circumradius
    x0 = tri.center[0] - r
    y0 = tri.center[1] - r
    span = 2.0 * r
    x_lines = grid_lines_in_window(grid.offset_x, grid.spacing, x0, x0 + span)
    y_lines = grid_lines_in_window(grid.offset_y, grid.spacing, y0, y0 + span)
    return CastScene(tri.vertices(), x_lines, y_lines, x0, y0, span)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_cast(scene: CastScene) -> str:
    """SVG for one cast: white background, black triangle edges, red grid."""
    c, scale = CANVAS_PX, CANVAS_PX / scene.span
    out = [
        f'<svg height="{c}" width="{c}" xmlns="http://www.w3.org/2000/svg">',
        f'<rect x="0" y="0" width="{c}" height="{c}" fill="white" />',
    ]
    v = scene.vertices
    for a, b in ((v[0], v[1]), (v[1], v[2]), (v[2], v[0])):
        x1, y1 = (a[0] - scene.x0) * scale, (a[1] - scene.y0) * scale
        x2, y2 = (b[0] - scene.x0) * scale, (b[1] - scene.y0) * scale
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="black" stroke-width="2"/>'
        )
    for x in scene.x_lines:
        px = (x - scene.x0) * scale
        out.append(
            f'<line x1="{_fmt(px)}" y1="0" x2="{_fmt(px)}" y2="{c}" '
            f'stroke="red" stroke-width="2"/>'
        )
    for y in scene.y_lines:
        py = (y - scene.y0) * scale
        out.append(
            f'<line x1="0" y1="{_fmt(py)}" x2="{c}" y2="{_fmt(py)}" '
            f'stroke="red" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_histogram(scene: HistogramScene) -> str:
    """SVG histogram: black bars, axes, estimate-axis ticks, mean caption."""
    plot_left = HIST_MARGIN_LEFT
    plot_right = HIST_WIDTH - HIST_MARGIN_RIGHT
    plot_top = HIST_MARGIN_TOP
    plot_bottom = HIST_HEIGHT - HIST_MARGIN_BOTTOM
    plot_w = plot_right - plot_left
    plot_h = plot_bottom - plot_top

    lows = [b[0] for b in scene.bins]
    highs = [b[1] for b in scene.bins]
    counts = [b[2] for b in scene.bins]
    x_min, x_max = min(lows), max(highs)
    x_span = x_max - x_min
    if x_span <= 0:  # single point: widen so bars keep a visible width
        x_min -= 0.5
        x_max += 0.5
        x_span = 1.0
    max_count = max(max(counts), 1)

    def x_px(x: float) -> float:
        return plot_left + (x - x_min) / x_span * plot_w

    out = [
        f'<svg height="{HIST_HEIGHT}" width="{HIST_WIDTH}" xmlns="http://www.w3.org/2000/svg">',
        f'<rect x="0" y="0" width="{HIST_WIDTH}" height="{HIST_HEIGHT}" fill="white" />',
    ]
    for low, high, count in scene.bins:
        bar_h = count / max_count * plot_h
        left = x_px(low)
        width = x_px(high) - left
        out.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(plot_bottom - bar_h)}" '
            f'width="{_fmt(width)}" height="{_fmt(bar_h)}" '
            f'fill="black"/>'
        )
    out.append(
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" '
        f'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" y2="{plot_bottom}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for i in range(5):
        x = x_min + x_span * i / 4
        px = x_px(x)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{plot_bottom}" '
            f'x2="{_fmt(px)}" y2="{plot_bottom + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{plot_bottom + 20}" text-anchor="middle" '
            f'font-size="12">{x:.4f}</text>'
        )
    out.append(
        f'<text x="{plot_left - 8}" y="{plot_top + 4}" text-anchor="end" '
        f'font-size="12">{max_count}</text>'
    )
    out.append(
        f'<text x="{(plot_left + plot_right) // 2}" y="{plot_bottom + 40}" '
        'text-anchor="middle" font-size="13">pi estimate</text>'
    )
    out.append(
        f'<text x="14" y="{(plot_top + plot_bottom) // 2}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 14 {(plot_top + plot_bottom) // 2})">'
        'runs</text>'
    )
    out.append(
        f'<text x="{(plot_left + plot_right) // 2}" y="{plot_top - 16}" '
        f'text-anchor="middle" font-size="14">mean = {scene.mean:.5f}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def filename_for_cast(index: int) -> str:
    """plotNN.svg with a zero-padded index, widening past two digits."""
    if index < 0:
        raise ValueError(f"cast index cannot be negative, got {index}")
    return f"plot{index:02d}.svg"
