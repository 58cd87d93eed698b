"""Unit tests for the wall-following router and the BFS oracle."""

import numpy as np
import pytest

from repro.core import label_mesh
from repro.faults import FaultSet, clustered, uniform_random
from repro.mesh import Mesh2D
from repro.routing import (
    BFSRouter,
    DropReason,
    FaultModelView,
    WallRouter,
)


def view_for(coords, shape=(10, 10), model="regions"):
    m = Mesh2D(*shape)
    res = label_mesh(m, FaultSet.from_coords(shape, coords))
    if model == "regions":
        return FaultModelView.from_regions(res)
    return FaultModelView.from_blocks(res)


class TestBFSOracle:
    def test_minimal_in_fault_free_mesh(self):
        v = view_for([])
        r = BFSRouter(v).route((0, 0), (9, 9))
        assert r.delivered and r.is_minimal

    def test_shortest_detour_around_block(self):
        # A single fault on the straight line costs exactly 2 extra hops;
        # a 3-tall wall centred on the line costs 4 (climb 2, descend 2).
        v1 = view_for([(5, 5)])
        r1 = BFSRouter(v1).route((0, 5), (9, 5))
        assert r1.delivered and r1.detour == 2
        v3 = view_for([(5, 4), (5, 5), (5, 6)])
        r3 = BFSRouter(v3).route((0, 5), (9, 5))
        assert r3.delivered and r3.detour == 4

    def test_unreachable_destination(self):
        # Fully enclose the destination corner.
        coords = [(8, 9), (8, 8), (9, 8)]
        v = view_for(coords)
        r = BFSRouter(v).route((0, 0), (9, 9))
        assert not r.delivered
        assert r.reason is DropReason.UNREACHABLE

    def test_path_cells_are_enabled_and_adjacent(self):
        rng = np.random.default_rng(8)
        v = view_for([(3, 3), (4, 4), (5, 3), (2, 6)])
        r = BFSRouter(v).route((0, 0), (9, 9))
        assert r.delivered
        for a, b in zip(r.path, r.path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert v.is_enabled(b)


class TestWallRouter:
    # ``travel`` is the packet's direction across the picture: the
    # right-hand rule turns differently when it meets a wall from the
    # west than from the east.
    @pytest.mark.parametrize("travel", ["right", "left"])
    def test_fault_free_is_minimal(self, travel):
        v = view_for([])
        ends = [(1, 1), (8, 7)] if travel == "right" else [(8, 7), (1, 1)]
        r = WallRouter(v).route(*ends)
        assert r.delivered and r.is_minimal

    @pytest.mark.parametrize("travel", ["right", "left"])
    def test_detours_around_wall(self, travel):
        coords = [(5, 3), (5, 4), (5, 5), (5, 6)]
        v = view_for(coords)
        ends = [(0, 5), (9, 5)] if travel == "right" else [(9, 5), (0, 5)]
        r = WallRouter(v).route(*ends)
        assert r.delivered
        assert all(not (c in coords) for c in r.path)

    def test_sealed_destination_reports_blocked(self):
        coords = [(8, 9), (8, 8), (9, 8)]
        v = view_for(coords)
        r = WallRouter(v).route((0, 0), (9, 9))
        assert not r.delivered
        assert r.reason in (DropReason.BLOCKED, DropReason.BUDGET)

    @pytest.mark.parametrize("seed", range(6))
    def test_delivery_matches_oracle_on_random_patterns(self, seed):
        # Whenever BFS can reach the destination, wall-following should
        # too on these moderate densities (the paper's convex regions
        # are exactly what makes boundary detours well-behaved).
        rng = np.random.default_rng(seed)
        m = Mesh2D(16, 16)
        faults = clustered(m.shape, 20, rng, clusters=2, spread=1.5)
        res = label_mesh(m, faults)
        v = FaultModelView.from_regions(res)
        wall = WallRouter(v)
        oracle = BFSRouter(v)
        pairs_rng = np.random.default_rng(seed + 1000)
        for _ in range(40):
            s, d = v.random_enabled_pair(pairs_rng)
            if oracle.route(s, d).delivered:
                got = wall.route(s, d)
                assert got.delivered, (s, d, got.reason)

    def test_path_stays_on_enabled_nodes(self):
        rng = np.random.default_rng(4)
        v = view_for([(4, 4), (5, 5), (4, 6), (6, 4)])
        r = WallRouter(v).route((0, 5), (9, 5))
        assert r.delivered
        assert all(v.is_enabled(c) for c in r.path)
