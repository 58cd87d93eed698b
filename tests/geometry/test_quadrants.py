"""Unit tests for quadrant decomposition (Lemma 2/3 primitives)."""

import numpy as np

from repro.geometry import (
    CellSet,
    quadrant_extreme_corner,
    quadrant_mask,
    quadrants_with_members,
    shapes,
)
from repro.geometry.boundary import corner_cells
from repro.mesh.coords import Quadrant


class TestQuadrantMask:
    def test_origin_in_all_quadrants(self):
        for q in Quadrant:
            m = quadrant_mask((5, 5), (2, 2), q)
            assert m[2, 2]

    def test_axes_overlap(self):
        pp = quadrant_mask((5, 5), (2, 2), Quadrant.PP)
        pn = quadrant_mask((5, 5), (2, 2), Quadrant.PN)
        # Positive x half-axis belongs to both.
        assert pp[4, 2] and pn[4, 2]
        # Strict interior of (+,+) belongs only to PP.
        assert pp[4, 4] and not pn[4, 4]

    def test_union_covers_grid(self):
        total = np.zeros((6, 6), dtype=bool)
        for q in Quadrant:
            total |= quadrant_mask((6, 6), (3, 2), q)
        assert total.all()


class TestQuadrantExtremeCorner:
    def test_empty_quadrant_returns_none(self):
        s = CellSet.from_coords((6, 6), [(4, 4)])
        assert quadrant_extreme_corner(s, (5, 5), Quadrant.PP) is None

    def test_rectangle_extremes_are_rect_corners(self):
        r = shapes.rectangle((8, 8), (2, 2), 3, 3)
        # Around the rectangle's own centre cell, each quadrant's extreme
        # is the corresponding rectangle corner.
        extremes = {
            q: quadrant_extreme_corner(r, (3, 3), q) for q in Quadrant
        }
        assert extremes[Quadrant.PP] == (4, 4)
        assert extremes[Quadrant.NN] == (2, 2)
        assert extremes[Quadrant.PN] == (4, 2)
        assert extremes[Quadrant.NP] == (2, 4)

    def test_lemma2_constructive_witness_is_a_corner(self):
        # The proof's extreme-(y, then x) node is a Definition-4 corner.
        # An L with two-cell-thick arms.
        l = shapes.rectangle((10, 10), (1, 1), 5, 2).union(
            shapes.rectangle((10, 10), (1, 1), 2, 5)
        )
        corners = corner_cells(l)
        for u in l:
            for q in Quadrant:
                w = quadrant_extreme_corner(l, u, q)
                assert w is not None
                assert w in corners

    def test_origin_member_guarantees_nonempty(self):
        # Lemma 2: for u inside the set, each quadrant holds >= 1 member
        # (u itself at minimum).
        s = CellSet.from_coords((6, 6), [(3, 3)])
        for q in Quadrant:
            assert quadrant_extreme_corner(s, (3, 3), q) == (3, 3)


class TestQuadrantsWithMembers:
    def test_outside_node_of_orthoconvex_region_has_empty_quadrant(self):
        # Lemma 3 on a T-shape for all nodes just outside it.
        t = shapes.t_shape((10, 10), (2, 2), 5, 4)
        mask = t.mask
        for x in range(10):
            for y in range(10):
                if mask[x, y]:
                    continue
                occ = quadrants_with_members(t, (x, y))
                assert not all(occ.values()), (x, y)

    def test_inside_node_sees_all_quadrants(self):
        r = shapes.rectangle((8, 8), (1, 1), 4, 4)
        occ = quadrants_with_members(r, (2, 2))
        assert all(occ.values())
