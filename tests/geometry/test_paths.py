"""Unit tests for monotone staircase paths inside regions."""

import pytest

from repro.geometry import CellSet, shapes
from repro.geometry.paths import is_monotone_path, monotone_path_within

SHAPE = (12, 12)


class TestIsMonotonePath:
    def test_empty_and_single(self):
        assert is_monotone_path([])
        assert is_monotone_path([(3, 3)])

    def test_straight_line(self):
        assert is_monotone_path([(0, 0), (1, 0), (2, 0)])

    def test_staircase(self):
        assert is_monotone_path([(0, 0), (1, 1), (2, 1), (2, 2)])

    def test_reversal_rejected(self):
        assert not is_monotone_path([(0, 0), (1, 0), (0, 0)])

    def test_detour_rejected(self):
        # Moving north then south again is non-monotone toward (2, 0).
        assert not is_monotone_path([(0, 0), (1, 1), (1, 0), (2, 0)])

    def test_non_king_step_rejected(self):
        assert not is_monotone_path([(0, 0), (2, 0)])


class TestMonotonePathWithin:
    def test_within_rectangle(self):
        r = shapes.rectangle(SHAPE, (1, 1), 5, 4)
        path = monotone_path_within(r, (1, 1), (5, 4))
        assert path is not None
        assert path[0] == (1, 1) and path[-1] == (5, 4)
        assert is_monotone_path(path)
        assert all(c in r for c in path)

    def test_same_cell(self):
        r = shapes.rectangle(SHAPE, (1, 1), 3, 3)
        assert monotone_path_within(r, (2, 2), (2, 2)) == [(2, 2)]

    def test_endpoint_outside_region(self):
        r = shapes.rectangle(SHAPE, (1, 1), 3, 3)
        assert monotone_path_within(r, (0, 0), (2, 2)) is None

    def test_l_shape_around_the_elbow(self):
        l = shapes.l_shape(SHAPE, (1, 1), 6, 6)
        # Arm tip to arm tip must route through the elbow, monotonically.
        path = monotone_path_within(l, (6, 1), (1, 6))
        assert path is not None and is_monotone_path(path)

    def test_pinched_staircase(self):
        s = shapes.staircase_shape(SHAPE, (2, 2), 5)
        path = monotone_path_within(s, (2, 2), (6, 6))
        assert path is not None
        assert len(path) == 5  # pure diagonal

    def test_u_shape_has_no_monotone_path_across(self):
        # The non-orthoconvex U: arm tip to arm tip requires descending
        # into the base and back up — not monotone.
        u = shapes.u_shape(SHAPE, (1, 1), 7, 5)
        assert monotone_path_within(u, (1, 5), (7, 5)) is None

    def test_plus_shape_all_pairs(self):
        p = shapes.plus_shape(SHAPE, (1, 1), 5, 5)
        cells = p.coords()
        for u in cells:
            for v in cells:
                path = monotone_path_within(p, u, v)
                assert path is not None, (u, v)
                assert is_monotone_path(path)
