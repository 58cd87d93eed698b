"""Unit tests for boundary tracing, perimeter and corner cells."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    CellSet,
    boundary_loops,
    corner_cells,
    perimeter,
    shapes,
)


class TestBoundaryLoops:
    def test_single_cell(self):
        s = CellSet.from_coords((4, 4), [(1, 1)])
        loops = boundary_loops(s)
        assert len(loops) == 1
        assert sorted(loops[0]) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_rectangle_has_four_corners(self):
        r = shapes.rectangle((8, 8), (1, 2), 4, 3)
        loops = boundary_loops(r)
        assert len(loops) == 1
        assert sorted(loops[0]) == [(1, 2), (1, 5), (5, 2), (5, 5)]

    def test_l_shape_has_six_corners(self):
        l = shapes.l_shape((8, 8), (0, 0), 4, 4)
        loops = boundary_loops(l)
        assert len(loops) == 1
        assert len(loops[0]) == 6

    def test_pinched_pair_is_one_loop(self):
        # Two diagonal squares: a single pinched polygon, not two loops.
        s = CellSet.from_coords((5, 5), [(1, 1), (2, 2)])
        loops = boundary_loops(s)
        assert len(loops) == 1
        # The pinch vertex (2, 2) is visited twice.
        assert loops[0].count((2, 2)) == 2

    def test_two_separate_regions_two_loops(self):
        s = CellSet.from_coords((8, 8), [(0, 0), (5, 5)])
        assert len(boundary_loops(s)) == 2

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            boundary_loops(CellSet.empty((3, 3)))

    def test_loop_edges_are_rectilinear_unit_steps_after_corner_merge(self):
        t = shapes.t_shape((10, 10), (1, 1), 5, 4)
        for loop in boundary_loops(t):
            n = len(loop)
            for i in range(n):
                a, b = loop[i], loop[(i + 1) % n]
                assert (a[0] == b[0]) != (a[1] == b[1])  # axis-aligned segment


class TestPerimeter:
    def test_single_cell(self):
        assert perimeter(CellSet.from_coords((3, 3), [(1, 1)])) == 4

    def test_rectangle(self):
        assert perimeter(shapes.rectangle((8, 8), (1, 1), 4, 3)) == 14

    def test_domino(self):
        assert perimeter(CellSet.from_coords((4, 4), [(1, 1), (2, 1)])) == 6

    def test_empty(self):
        assert perimeter(CellSet.empty((3, 3))) == 0


class TestCornerCells:
    def test_rectangle_corners(self):
        r = shapes.rectangle((8, 8), (2, 2), 3, 2)
        corners = corner_cells(r)
        assert set(corners.coords()) == {(2, 2), (4, 2), (2, 3), (4, 3)}

    def test_single_cell_is_its_own_corner(self):
        s = CellSet.from_coords((4, 4), [(2, 2)])
        assert corner_cells(s) == s

    def test_l_shape_corners(self):
        # Definition 4: outside-neighbour in each dimension.  For an L of
        # thickness 1, every cell except the elbow has an outside
        # neighbour in both dimensions.
        l = shapes.l_shape((8, 8), (0, 0), 3, 3)
        corners = set(corner_cells(l).coords())
        assert (0, 0) in corners          # the elbow cell: W and S are outside
        assert (2, 0) in corners and (0, 2) in corners  # arm tips

    def test_grid_edge_counts_as_outside(self):
        # A cell on the grid boundary has a ghost neighbour outside.
        s = shapes.rectangle((4, 4), (0, 0), 4, 4)  # whole grid
        corners = set(corner_cells(s).coords())
        assert corners == {(0, 0), (3, 0), (0, 3), (3, 3)}

    def test_interior_cells_are_not_corners(self):
        r = shapes.rectangle((8, 8), (1, 1), 4, 4)
        corners = corner_cells(r)
        assert (2, 2) not in corners and (2, 1) not in corners
