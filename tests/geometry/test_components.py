"""Unit tests for connected components and set distances."""

import time

import numpy as np
import pytest

from repro.geometry import (
    CellSet,
    connected_components,
    is_connected,
    label_components,
    set_distance,
)
from repro.geometry.components import connected_components_reference


def serpentine(w, h):
    """Every other row full, consecutive rows joined alternately at the
    east and west ends: one 4-connected snake."""
    m = np.zeros((w, h), dtype=bool)
    m[:, 0::2] = True
    for i, y in enumerate(range(1, h - 1, 2)):
        m[w - 1 if i % 2 == 0 else 0, y] = True
    return m


def spiral(n):
    """A square spiral walked inward from ``(0, 0)`` with one-cell gaps
    between its arms: one 4-connected snake."""
    m = np.zeros((n, n), dtype=bool)
    x = y = 0
    m[0, 0] = True
    arms = [n - 1, n - 1] + [k for k in range(n - 1, 0, -2) for _ in (0, 1)][1:]
    for i, length in enumerate(arms):
        dx, dy = ((1, 0), (0, 1), (-1, 0), (0, -1))[i % 4]
        for _ in range(length):
            x, y = x + dx, y + dy
            m[x, y] = True
    return m


class TestComponents4:
    def test_single_component(self):
        s = CellSet.from_coords((5, 5), [(1, 1), (1, 2), (2, 2)])
        comps = connected_components(s, 4)
        assert len(comps) == 1
        assert comps[0] == s

    def test_diagonal_cells_split_under_4(self):
        s = CellSet.from_coords((5, 5), [(1, 1), (2, 2)])
        assert len(connected_components(s, 4)) == 2

    def test_diagonal_cells_join_under_8(self):
        s = CellSet.from_coords((5, 5), [(1, 1), (2, 2)])
        assert len(connected_components(s, 8)) == 1

    def test_empty_set_has_no_components(self):
        assert connected_components(CellSet.empty((4, 4)), 4) == []

    def test_components_partition_the_set(self):
        s = CellSet.from_coords((6, 6), [(0, 0), (0, 1), (3, 3), (5, 5)])
        comps = connected_components(s, 4)
        union = CellSet.empty((6, 6))
        total = 0
        for c in comps:
            assert union.isdisjoint(c)
            union = union | c
            total += len(c)
        assert union == s and total == len(s)

    def test_deterministic_order(self):
        s = CellSet.from_coords((6, 6), [(5, 5), (0, 0)])
        comps = connected_components(s, 4)
        assert comps[0].coords() == [(0, 0)]

    def test_invalid_connectivity_rejected(self):
        with pytest.raises(ValueError):
            connected_components(CellSet.empty((3, 3)), 6)


class TestIsConnected:
    def test_empty_not_connected(self):
        assert not is_connected(CellSet.empty((3, 3)))

    def test_singleton_connected(self):
        assert is_connected(CellSet.from_coords((3, 3), [(1, 1)]))

    def test_connectivity_parameter_matters(self):
        s = CellSet.from_coords((4, 4), [(0, 0), (1, 1)])
        assert not is_connected(s, 4)
        assert is_connected(s, 8)


class TestSetDistance:
    def test_adjacent_sets(self):
        a = CellSet.from_coords((5, 5), [(0, 0)])
        b = CellSet.from_coords((5, 5), [(0, 1)])
        assert set_distance(a, b) == 1

    def test_diagonal_distance_is_two(self):
        a = CellSet.from_coords((5, 5), [(0, 0)])
        b = CellSet.from_coords((5, 5), [(1, 1)])
        assert set_distance(a, b) == 2

    def test_min_over_pairs(self):
        a = CellSet.from_coords((8, 8), [(0, 0), (0, 7)])
        b = CellSet.from_coords((8, 8), [(4, 7)])
        assert set_distance(a, b) == 4

    def test_empty_raises(self):
        a = CellSet.from_coords((3, 3), [(0, 0)])
        with pytest.raises(ValueError):
            set_distance(a, CellSet.empty((3, 3)))


class TestSnakes:
    """Long thin components whose run graph is one long path: a labeler
    that moves a minimum label one link per round takes one round per
    link on these."""

    @pytest.mark.parametrize("conn", [4, 8])
    @pytest.mark.parametrize(
        "mask",
        [serpentine(30, 41), serpentine(41, 30).T.copy(), spiral(31), spiral(40)],
        ids=["serpentine-rows", "serpentine-columns", "spiral-odd", "spiral-even"],
    )
    def test_matches_bfs_oracle(self, mask, conn):
        s = CellSet(mask)
        comps = connected_components(s, conn)
        assert comps == connected_components_reference(s, conn)
        assert len(comps) == 1

    @pytest.mark.parametrize("conn", [4, 8])
    def test_large_serpentine_within_budget(self, conn):
        # 500 runs per column, 500,000 runs in one component.
        mask = serpentine(1000, 1000)
        t0 = time.perf_counter()
        labels, count = label_components(mask, conn)
        elapsed = time.perf_counter() - t0
        assert count == 1
        assert np.array_equal(labels, np.where(mask, 0, -1))
        assert elapsed < 2.0, f"1000x1000 serpentine took {elapsed:.2f}s"
