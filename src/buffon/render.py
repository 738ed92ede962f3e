"""Dependency-free SVG output for cast snapshots and batch histograms.

Documents are plain generated text with no timestamps and coordinates
rounded to a fixed number of decimals, so rendering the same scene twice
yields byte-identical bytes.  Each element kind has one writer: ``_svg``
for the document and its white background, ``_line`` and ``_text`` for
every line and label.  World axes map directly onto pixel axes (y grows
downward on screen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import GridSpec, TriangleSpec

CANVAS_PX = 400

HIST_WIDTH = 640
HIST_HEIGHT = 400
HIST_MARGIN_LEFT = 60
HIST_MARGIN_RIGHT = 20
HIST_MARGIN_TOP = 40
HIST_MARGIN_BOTTOM = 60


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
    first = math.ceil((lo - offset) / spacing)
    last = math.floor((hi - offset) / spacing)
    # One k past the floor covers rounding in the division and the filter
    # keeps the result exact; the bounded range keeps a window far from the
    # origin, where adding the spacing no longer moves the float, finite.
    positions = (offset + k * spacing for k in range(first, last + 2))
    return tuple(pos for pos in positions if lo <= pos <= hi)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _svg(width: int, height: int, elements) -> str:
    """A whole document: header, white background, the elements, closing tag."""
    head = [
        f'<svg height="{height}" width="{width}" xmlns="http://www.w3.org/2000/svg">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" />',
    ]
    return "\n".join([*head, *elements, "</svg>"]) + "\n"


def _line(x1, y1, x2, y2, stroke: str, width: int) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _text(x, y, anchor: str, size: int, body: str, extra: str = "") -> str:
    return f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-size="{size}"{extra}>{body}</text>'


def scene_for_cast(tri: TriangleSpec, grid: GridSpec) -> tuple[str, ...]:
    """The elements of one cast: black triangle edges, then the red grid.

    The world window is the square of side 2*circumradius centered on the
    triangle, drawn across the whole canvas; every grid line inside the
    window is included.
    """
    r = tri.circumradius
    x0 = tri.center[0] - r
    y0 = tri.center[1] - r
    span = 2.0 * r
    c, scale = CANVAS_PX, CANVAS_PX / span
    v = [(_fmt((x - x0) * scale), _fmt((y - y0) * scale)) for x, y in tri.vertices()]
    out = [_line(*a, *b, "black", 2) for a, b in ((v[0], v[1]), (v[1], v[2]), (v[2], v[0]))]
    for x in grid_lines_in_window(grid.offset_x, grid.spacing, x0, x0 + span):
        px = _fmt((x - x0) * scale)
        out.append(_line(px, 0, px, c, "red", 2))
    for y in grid_lines_in_window(grid.offset_y, grid.spacing, y0, y0 + span):
        py = _fmt((y - y0) * scale)
        out.append(_line(0, py, c, py, "red", 2))
    return tuple(out)


def render_cast(elements: tuple[str, ...]) -> str:
    """SVG for one cast: white background, then ``scene_for_cast``'s elements."""
    return _svg(CANVAS_PX, CANVAS_PX, elements)


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

    mid_x, mid_y = (plot_left + plot_right) // 2, (plot_top + plot_bottom) // 2
    out = []
    for low, high, count in scene.bins:
        bar_h = count / max_count * plot_h
        left = x_px(low)
        width = x_px(high) - left
        out.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(plot_bottom - bar_h)}" '
            f'width="{_fmt(width)}" height="{_fmt(bar_h)}" '
            f'fill="black"/>'
        )
    out.append(_line(plot_left, plot_bottom, plot_right, plot_bottom, "black", 1))
    out.append(_line(plot_left, plot_top, plot_left, plot_bottom, "black", 1))
    for i in range(5):
        x = x_min + x_span * i / 4
        px = _fmt(x_px(x))
        out.append(_line(px, plot_bottom, px, plot_bottom + 5, "black", 1))
        out.append(_text(px, plot_bottom + 20, "middle", 12, f"{x:.4f}"))
    out.append(_text(plot_left - 8, plot_top + 4, "end", 12, str(max_count)))
    out.append(_text(mid_x, plot_bottom + 40, "middle", 13, "pi estimate"))
    out.append(_text(14, mid_y, "middle", 13, "runs", f' transform="rotate(-90 14 {mid_y})"'))
    out.append(_text(mid_x, plot_top - 16, "middle", 14, f"mean = {scene.mean:.5f}"))
    return _svg(HIST_WIDTH, HIST_HEIGHT, out)


def filename_for_cast(index: int) -> str:
    """plotNN.svg with a zero-padded index, widening past two digits."""
    if index < 0:
        raise ValueError(f"cast index cannot be negative, got {index}")
    return f"plot{index:02d}.svg"
