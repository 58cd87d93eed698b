"""Unit tests for the canonical shape generators."""

import pytest

from repro.errors import GeometryError
from repro.geometry import is_orthoconvex, shapes
from repro.geometry.rectangles import bounding_rect

SHAPE = (16, 16)


class TestRectangle:
    def test_size(self):
        r = shapes.rectangle(SHAPE, (2, 3), 4, 5)
        assert len(r) == 20
        assert r.bounding_box() == (2, 3, 5, 7)

    def test_fit_validation(self):
        with pytest.raises(GeometryError):
            shapes.rectangle((4, 4), (2, 2), 3, 3)
        with pytest.raises(GeometryError):
            shapes.rectangle((4, 4), (0, 0), 0, 2)


class TestLetterShapes:
    def test_l_cell_count(self):
        l = shapes.l_shape(SHAPE, (0, 0), 5, 4)
        # Bottom arm 5 + left arm 4 - shared elbow 1.
        assert len(l) == 8

    def test_t_has_bar_and_stem(self):
        t = shapes.t_shape(SHAPE, (0, 0), 5, 4)
        assert (0, 3) in t and (4, 3) in t  # top bar ends
        assert (2, 0) in t                  # stem bottom (centered)

    def test_plus_is_symmetric_cross(self):
        p = shapes.plus_shape(SHAPE, (0, 0), 5, 5)
        assert len(p) == 9
        assert (2, 0) in p and (0, 2) in p and (2, 4) in p and (4, 2) in p

    def test_u_has_cavity(self):
        u = shapes.u_shape(SHAPE, (0, 0), 5, 4)
        assert (2, 2) not in u  # the cavity
        assert (0, 3) in u and (4, 3) in u  # arm tops

    def test_h_has_two_cavities(self):
        h = shapes.h_shape(SHAPE, (0, 0), 5, 5)
        assert (2, 0) not in h and (2, 4) not in h
        assert (2, 2) in h  # crossbar

    def test_extent_validation(self):
        with pytest.raises(GeometryError):
            shapes.l_shape(SHAPE, (0, 0), 0, 4)
        with pytest.raises(GeometryError):
            shapes.t_shape(SHAPE, (14, 0), 4, 4)  # does not fit the grid
        with pytest.raises(GeometryError):
            shapes.u_shape(SHAPE, (0, 0), 2, 4)  # too narrow for a cavity
        with pytest.raises(GeometryError):
            shapes.h_shape(SHAPE, (0, 0), 5, 2)  # too short for cavities

    def test_bounding_boxes_match_request(self):
        for builder in (shapes.l_shape, shapes.t_shape, shapes.u_shape):
            s = builder(SHAPE, (3, 2), 6, 5)
            assert bounding_rect(s).width == 6
            assert bounding_rect(s).height == 5


class TestStaircase:
    def test_cells_on_diagonal(self):
        s = shapes.staircase_shape(SHAPE, (2, 2), 4)
        assert set(s.coords()) == {(2, 2), (3, 3), (4, 4), (5, 5)}

    def test_orthoconvex_pinched_polygon(self):
        assert is_orthoconvex(shapes.staircase_shape(SHAPE, (0, 0), 6))

    def test_needs_positive_steps(self):
        with pytest.raises(GeometryError):
            shapes.staircase_shape(SHAPE, (0, 0), 0)
