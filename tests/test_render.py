import math
import xml.etree.ElementTree as ET

import pytest

from buffon.geometry import GridSpec, TriangleSpec
from buffon.render import (
    HistogramScene,
    filename_for_cast,
    grid_lines_in_window,
    render_cast,
    render_histogram,
    scene_for_cast,
)


def _parse(svg_text):
    root = ET.fromstring(svg_text)
    assert root.tag.endswith("svg")
    return root


def _children_by_tag(root, tag):
    return [el for el in root if el.tag.split("}")[-1] == tag]


@pytest.fixture
def two_line_scene():
    tri = TriangleSpec((0.0, 0.0), 1.0, 0.0)
    grid = GridSpec(1.0, 0.5, 0.5)  # lines at -0.5 and 0.5 per axis, both visible
    return scene_for_cast(tri, grid)


class TestRenderCast:
    def test_element_census(self, two_line_scene):
        root = _parse(render_cast(two_line_scene))
        rects = _children_by_tag(root, "rect")
        lines = _children_by_tag(root, "line")
        assert len(rects) == 1
        assert rects[0].get("fill") == "white"
        black = [el for el in lines if el.get("stroke") == "black"]
        red = [el for el in lines if el.get("stroke") == "red"]
        assert len(black) == 3
        assert len(red) == 4
        assert all(el.get("stroke-width") == "2" for el in lines)

    def test_header(self, two_line_scene):
        doc = render_cast(two_line_scene)
        assert doc.startswith('<svg height="400" width="400"')
        assert doc.rstrip().endswith("</svg>")

    def test_vertex_pixels(self, two_line_scene):
        # rotation-0 vertex 0 sits at (r, 0): right edge, vertical center
        doc = render_cast(two_line_scene)
        first_edge = doc.splitlines()[2]
        assert 'x1="400.00"' in first_edge
        assert 'y1="200.00"' in first_edge

    def test_byte_identical_rerender(self, two_line_scene):
        assert render_cast(two_line_scene) == render_cast(two_line_scene)
        rebuilt = scene_for_cast(TriangleSpec((0.0, 0.0), 1.0, 0.0), GridSpec(1.0, 0.5, 0.5))
        assert render_cast(rebuilt) == render_cast(two_line_scene)

    def test_well_formed_for_random_scene(self):
        tri = TriangleSpec((3.0, -2.0), 1.0, 1.9)
        scene = scene_for_cast(tri, GridSpec(1.0, 0.123, 0.987))
        _parse(render_cast(scene))


class TestGridLinesInWindow:
    def test_interior_lines(self):
        assert grid_lines_in_window(0.5, 1.0, -0.58, 0.58) == (-0.5, 0.5)

    def test_window_edges_inclusive(self):
        assert grid_lines_in_window(0.0, 1.0, 0.0, 1.0) == (0.0, 1.0)

    def test_empty_window(self):
        assert grid_lines_in_window(0.9, 1.0, 0.0, 0.5) == ()

    def test_spans_many_tiles(self):
        lines = grid_lines_in_window(0.25, 1.0, -3.0, 3.0)
        assert lines == (-2.75, -1.75, -0.75, 0.25, 1.25, 2.25)


class TestRenderHistogram:
    def _bars(self, root):
        rects = _children_by_tag(root, "rect")
        return [el for el in rects if el.get("fill") == "black"]

    def test_single_bin_spans_plot_height(self):
        scene = HistogramScene(bins=((3.0, 3.2, 10),), mean=3.1)
        root = _parse(render_histogram(scene))
        bars = self._bars(root)
        assert len(bars) == 1
        # plot height for the default 400px canvas with 40+60 margins
        assert bars[0].get("height") == "300.00"
        assert bars[0].get("y") == "40.00"

    def test_proportional_bar_heights(self):
        scene = HistogramScene(bins=((0.0, 1.0, 1), (1.0, 2.0, 2), (2.0, 3.0, 1)), mean=1.5)
        root = _parse(render_histogram(scene))
        heights = [float(el.get("height")) for el in self._bars(root)]
        assert len(heights) == 3
        assert heights[1] == pytest.approx(2.0 * heights[0], rel=1e-9)
        assert heights[0] == pytest.approx(heights[2], rel=1e-9)

    def test_caption_mean_five_decimals(self):
        scene = HistogramScene(bins=((3.0, 3.3, 4),), mean=math.pi)
        doc = render_histogram(scene)
        assert "mean = 3.14159" in doc
        assert "mean = 3.141593" not in doc

    def test_axis_tick_labels_present(self):
        scene = HistogramScene(bins=((3.0, 3.5, 2), (3.5, 4.0, 3)), mean=3.5)
        root = _parse(render_histogram(scene))
        texts = [el.text for el in _children_by_tag(root, "text")]
        assert "3.0000" in texts and "4.0000" in texts
        assert "pi estimate" in texts and "runs" in texts

    def test_byte_identical_rerender(self):
        scene = HistogramScene(bins=((3.0, 3.5, 2), (3.5, 4.0, 3)), mean=3.5)
        assert render_histogram(scene) == render_histogram(scene)

    def test_zero_counts_do_not_crash(self):
        scene = HistogramScene(bins=((0.0, 1.0, 0),), mean=0.5)
        root = _parse(render_histogram(scene))
        assert self._bars(root)[0].get("height") == "0.00"

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError):
            HistogramScene(bins=(), mean=0.0)


class TestFilenames:
    @pytest.mark.parametrize("index,name", [(0, "plot00.svg"), (7, "plot07.svg"), (99, "plot99.svg"), (123, "plot123.svg")])
    def test_zero_padded_names(self, index, name):
        assert filename_for_cast(index) == name

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            filename_for_cast(-1)
