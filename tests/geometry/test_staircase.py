"""Unit tests for staircase connection."""

import pytest

from repro.errors import GeometryError
from repro.geometry import CellSet, connect_orthoconvex, is_connected, is_orthoconvex
from repro.geometry.staircase import staircase_cells


class TestStaircaseCells:
    def test_adjacent_cells_need_no_bridge(self):
        assert staircase_cells((0, 0), (1, 0)) == []
        assert staircase_cells((0, 0), (1, 1)) == []

    def test_pure_diagonal(self):
        cells = staircase_cells((0, 0), (3, 3))
        assert cells == [(1, 1), (2, 2)]

    def test_mixed_path_length(self):
        # Chebyshev distance 4 -> 3 intermediate cells.
        cells = staircase_cells((0, 0), (4, 2))
        assert len(cells) == 3
        # Chain + endpoints must be king-connected.
        full = [(0, 0)] + cells + [(4, 2)]
        for a, b in zip(full, full[1:]):
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1

    def test_same_cell(self):
        assert staircase_cells((2, 2), (2, 2)) == []

    def test_negative_directions(self):
        cells = staircase_cells((3, 3), (0, 0))
        assert cells == [(2, 2), (1, 1)]

    def test_chain_with_endpoints_is_orthoconvex(self):
        u, v = (1, 1), (6, 4)
        chain = CellSet.from_coords((10, 10), [u, v] + staircase_cells(u, v))
        assert is_orthoconvex(chain)


class TestConnectOrthoconvex:
    def test_connected_orthoconvex_input_is_identity(self):
        # An L-tromino is already a connected orthoconvex polygon.
        s = CellSet.from_coords((8, 8), [(1, 1), (2, 1), (2, 2)])
        assert connect_orthoconvex(s) == s

    def test_two_distant_cells(self):
        s = CellSet.from_coords((10, 10), [(0, 0), (5, 5)])
        out = connect_orthoconvex(s)
        assert is_orthoconvex(out)
        assert s <= out
        # A pure diagonal join needs exactly 4 bridge cells.
        assert len(out) == 6

    def test_collinear_distant_cells(self):
        s = CellSet.from_coords((10, 10), [(0, 0), (6, 0)])
        out = connect_orthoconvex(s)
        # Same row: the closure of a connected row segment is the segment.
        assert len(out) == 7 and is_orthoconvex(out)

    def test_three_fragments(self):
        s = CellSet.from_coords((12, 12), [(0, 0), (5, 5), (10, 0)])
        out = connect_orthoconvex(s)
        assert is_orthoconvex(out) and s <= out

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            connect_orthoconvex(CellSet.empty((5, 5)))

    def test_result_always_connected_8(self):
        s = CellSet.from_coords((9, 9), [(0, 8), (8, 0), (4, 4)])
        assert is_connected(connect_orthoconvex(s), connectivity=8)
