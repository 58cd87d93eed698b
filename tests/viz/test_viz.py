"""Unit tests for ASCII and SVG rendering."""

from repro.core import label_mesh
from repro.faults import FaultSet
from repro.geometry import CellSet, shapes
from repro.mesh import Mesh2D
from repro.viz import render_cells, render_result, svg_of_result


def paper_result():
    return label_mesh(
        Mesh2D(6, 6), FaultSet.from_coords((6, 6), [(1, 3), (2, 1), (3, 2)])
    )


class TestAsciiResult:
    def test_glyph_counts_match_labels(self):
        r = paper_result()
        art = render_result(r)
        assert art.count("#") == 3       # faults
        assert art.count("+") == 6       # activated
        assert art.count("x") == 0       # nothing left disabled here
        assert art.count(".") == 27      # safe

    def test_origin_is_southwest(self):
        r = paper_result()
        lines = render_result(r).splitlines()
        # Fault (2, 1) must appear in the second grid line from the
        # bottom (above the x ruler), third column after the "y " label.
        assert lines[-3][2 + 2] == "#"

    def test_axes_ruler(self):
        r = paper_result()
        art = render_result(r)
        assert art.splitlines()[-1].strip() == "012345"


class TestAsciiCells:
    def test_render_cells_with_highlight(self):
        cells = shapes.rectangle((6, 6), (1, 1), 3, 2)
        hl = CellSet.from_coords((6, 6), [(2, 2)])
        art = render_cells(cells, highlight=hl, axes=False)
        assert art.count("@") == 1
        assert art.count("#") == 5


class TestSvg:
    def test_result_svg_well_formed(self):
        svg = svg_of_result(paper_result(), scale=10)
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 36 + 0  # one per cell
        assert "<polygon" in svg  # block/region outlines
