"""Unit tests for coordinates, directions and quadrants."""

import pytest

from repro.mesh.coords import (
    DIRECTIONS,
    Dimension,
    Direction,
    Quadrant,
    add,
    sub,
)


class TestDimension:
    def test_other_is_involution(self):
        assert Dimension.X.other is Dimension.Y
        assert Dimension.Y.other is Dimension.X
        for d in Dimension:
            assert d.other.other is d

    def test_int_values(self):
        assert int(Dimension.X) == 0
        assert int(Dimension.Y) == 1


class TestDirection:
    def test_offsets_are_unit_vectors(self):
        for d in Direction:
            dx, dy = d.offset
            assert abs(dx) + abs(dy) == 1

    def test_dimension_of_each_direction(self):
        assert Direction.EAST.dimension is Dimension.X
        assert Direction.WEST.dimension is Dimension.X
        assert Direction.NORTH.dimension is Dimension.Y
        assert Direction.SOUTH.dimension is Dimension.Y

    def test_opposite_is_involution(self):
        for d in Direction:
            assert d.opposite.opposite is d
            ox, oy = d.opposite.offset
            assert (ox, oy) == (-d.offset[0], -d.offset[1])

    def test_clockwise_cycle_has_period_four(self):
        for d in Direction:
            cur = d
            for _ in range(4):
                cur = cur.clockwise
            assert cur is d

    def test_clockwise_of_north_is_east(self):
        assert Direction.NORTH.clockwise is Direction.EAST
        assert Direction.EAST.clockwise is Direction.SOUTH

    def test_counterclockwise_inverts_clockwise(self):
        for d in Direction:
            assert d.clockwise.counterclockwise is d

    def test_directions_tuple_is_deterministic(self):
        assert DIRECTIONS == (
            Direction.EAST,
            Direction.WEST,
            Direction.NORTH,
            Direction.SOUTH,
        )


class TestQuadrant:
    def test_origin_in_every_quadrant(self):
        for q in Quadrant:
            assert q.contains((3, 3), (3, 3))

    def test_axes_shared_between_adjacent_quadrants(self):
        # A point on the +x axis is in both (+,+) and (+,-).
        assert Quadrant.PP.contains((0, 0), (5, 0))
        assert Quadrant.PN.contains((0, 0), (5, 0))
        assert not Quadrant.NP.contains((0, 0), (5, 0))

    def test_strict_interior_in_exactly_one_quadrant(self):
        point = (4, -2)
        holders = [q for q in Quadrant if q.contains((0, 0), point)]
        assert holders == [Quadrant.PN]


class TestCoordHelpers:
    def test_add_sub_roundtrip(self):
        assert add((2, 3), (1, -1)) == (3, 2)
        assert sub(add((2, 3), (5, 7)), (5, 7)) == (2, 3)
