"""Unit tests for orthogonal convexity tests and closures.

The canonical facts from Section 2 of the paper: L, T and + shaped
regions are orthogonal convex; U and H shaped regions are not; every
rectangle trivially is.
"""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    CellSet,
    column_runs,
    fill_spans,
    is_orthoconvex,
    orthoconvex_closure,
    row_runs,
    shapes,
)

SHAPE = (12, 12)


class TestIsOrthoconvex:
    def test_rectangle_is_orthoconvex(self):
        assert is_orthoconvex(shapes.rectangle(SHAPE, (2, 2), 4, 3))

    def test_l_t_plus_are_orthoconvex(self):
        # Paper Section 2: "T-shape, L-shape, and +-shape fault regions
        # are orthogonal convex polygons".
        assert is_orthoconvex(shapes.l_shape(SHAPE, (1, 1), 5, 4))
        thick_l = shapes.rectangle(SHAPE, (1, 1), 5, 2).union(
            shapes.rectangle(SHAPE, (1, 1), 2, 4)
        )
        assert is_orthoconvex(thick_l)
        assert is_orthoconvex(shapes.t_shape(SHAPE, (1, 1), 5, 4))
        assert is_orthoconvex(shapes.plus_shape(SHAPE, (1, 1), 5, 5))

    def test_u_h_are_not_orthoconvex(self):
        # Paper Section 2: "U-shape and H-shape fault regions are
        # non-orthogonal convex polygons".
        assert not is_orthoconvex(shapes.u_shape(SHAPE, (1, 1), 5, 4))
        assert not is_orthoconvex(shapes.h_shape(SHAPE, (1, 1), 5, 5))

    def test_diagonal_staircase_is_orthoconvex(self):
        # Corner-touching cells form a single pinched polygon.
        assert is_orthoconvex(shapes.staircase_shape(SHAPE, (2, 2), 5))

    def test_disconnected_set_fails_connectivity(self):
        s = CellSet.from_coords(SHAPE, [(0, 0), (4, 4)])
        assert not is_orthoconvex(s, require_connected=True)
        assert is_orthoconvex(s, require_connected=False)

    def test_row_gap_fails(self):
        s = CellSet.from_coords(SHAPE, [(0, 0), (2, 0), (1, 1), (0, 1), (2, 1)])
        assert not is_orthoconvex(s, require_connected=False)

    def test_empty_set_is_not_a_region(self):
        assert not is_orthoconvex(CellSet.empty(SHAPE))

    def test_paper_example_pinched_pair(self):
        # The worked example's disabled region {(2,1), (3,2)}.
        s = CellSet.from_coords(SHAPE, [(2, 1), (3, 2)])
        assert is_orthoconvex(s)


class TestFillSpans:
    def test_fills_horizontal_gap(self):
        s = CellSet.from_coords((5, 5), [(0, 2), (4, 2)])
        filled = fill_spans(s.mask, axis=0)
        assert filled[:, 2].all()
        assert filled.sum() == 5

    def test_fills_vertical_gap(self):
        s = CellSet.from_coords((5, 5), [(2, 0), (2, 3)])
        filled = fill_spans(s.mask, axis=1)
        assert filled[2, 0:4].all() and not filled[2, 4]

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            fill_spans(np.zeros((3, 3), dtype=bool), axis=2)

    def test_noop_on_convex_input(self):
        r = shapes.rectangle((6, 6), (1, 1), 3, 3)
        assert np.array_equal(fill_spans(r.mask, 0), r.mask)
        assert np.array_equal(fill_spans(r.mask, 1), r.mask)


class TestClosure:
    def test_closure_of_u_is_filled_bbox_part(self):
        u = shapes.u_shape(SHAPE, (1, 1), 5, 4)
        closed = orthoconvex_closure(u)
        # The cavity must be filled; a U's closure is its full bounding box.
        assert len(closed) == 5 * 4
        assert is_orthoconvex(closed)

    def test_closure_is_idempotent(self):
        # A U with two-cell-thick arms.
        u = shapes.rectangle(SHAPE, (1, 1), 6, 2).union(
            shapes.rectangle(SHAPE, (1, 1), 2, 5)
        ).union(shapes.rectangle(SHAPE, (5, 1), 2, 5))
        once = orthoconvex_closure(u)
        assert orthoconvex_closure(once) == once

    def test_closure_contains_input(self):
        s = CellSet.from_coords(SHAPE, [(1, 1), (5, 3), (3, 7)])
        assert s <= orthoconvex_closure(s)

    def test_closure_of_orthoconvex_is_identity(self):
        t = shapes.t_shape(SHAPE, (2, 2), 5, 5)
        assert orthoconvex_closure(t) == t

    def test_closure_of_diagonal_pair_is_itself(self):
        s = CellSet.from_coords(SHAPE, [(2, 1), (3, 2)])
        assert orthoconvex_closure(s) == s

    def test_closure_may_be_disconnected(self):
        s = CellSet.from_coords(SHAPE, [(0, 0), (5, 5)])
        assert orthoconvex_closure(s) == s  # far apart: nothing to fill

    def test_closure_needs_iteration(self):
        # An H closes to its bounding box, but only after the first
        # horizontal fill enables further vertical fills.
        h = shapes.h_shape(SHAPE, (1, 1), 5, 5)
        closed = orthoconvex_closure(h)
        assert len(closed) == 25

    def test_empty_closure_is_empty(self):
        e = CellSet.empty(SHAPE)
        assert orthoconvex_closure(e) == e

    def test_minimality_against_bruteforce(self):
        # On a tiny grid, verify the closure is contained in every
        # orthoconvex superset (least-fixpoint minimality).
        import itertools

        grid = (3, 3)
        seed = CellSet.from_coords(grid, [(0, 0), (2, 1)])
        closed = orthoconvex_closure(seed)
        cells = [(x, y) for x in range(3) for y in range(3)]
        for r in range(len(cells) + 1):
            for combo in itertools.combinations(cells, r):
                cand = CellSet.from_coords(grid, combo)
                if seed <= cand and is_orthoconvex(cand, require_connected=False):
                    assert closed <= cand


class TestRuns:
    def test_row_runs_of_l_shape(self):
        l = shapes.l_shape((8, 8), (1, 1), 4, 3)
        runs = row_runs(l)
        assert runs[0] == (1, 1, 4)  # bottom arm spans x 1..4
        assert runs[1] == (2, 1, 1)  # upper rows only the left column
        assert runs[2] == (3, 1, 1)

    def test_column_runs_of_rectangle(self):
        r = shapes.rectangle((8, 8), (2, 3), 2, 4)
        assert column_runs(r) == [(2, 3, 6), (3, 3, 6)]

    def test_runs_reject_gaps(self):
        s = CellSet.from_coords((8, 8), [(0, 0), (2, 0)])
        with pytest.raises(GeometryError):
            row_runs(s)
        s2 = CellSet.from_coords((8, 8), [(0, 0), (0, 2)])
        with pytest.raises(GeometryError):
            column_runs(s2)
