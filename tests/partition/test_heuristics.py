"""Unit tests for the cluster and guillotine cover heuristics."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.faults import uniform_random
from repro.geometry import CellSet, is_orthoconvex, orthoconvex_closure, shapes
from repro.partition import cluster_cover, exact_cover, guillotine_cover

SHAPE = (16, 16)


def _valid(cover, faults):
    assert faults <= _union(cover)
    for p in cover.polygons:
        assert is_orthoconvex(p)
    assert cover.separation() >= 2


def _union(cover):
    out = CellSet.empty(cover.faults.shape)
    for p in cover.polygons:
        out = out | p
    return out


class TestClusterCover:
    def test_two_distant_clusters_split(self):
        faults = (
            shapes.rectangle(SHAPE, (1, 1), 2, 2)
            | shapes.rectangle(SHAPE, (10, 10), 2, 2)
        )
        cover = cluster_cover(faults)
        assert cover.num_polygons == 2
        assert cover.num_nonfaulty == 0
        _valid(cover, faults)

    def test_connected_block_stays_single(self):
        faults = shapes.u_shape(SHAPE, (2, 2), 6, 5)
        cover = cluster_cover(faults)
        assert cover.num_polygons == 1
        # A connected U cannot be split under the separation floor, so
        # the cover is the closure (cavity filled).
        assert _union(cover) == orthoconvex_closure(faults)

    def test_close_clusters_merge(self):
        # Clusters at distance 1 must merge to honour separation >= 2.
        faults = CellSet.from_coords(SHAPE, [(3, 3), (3, 5)])
        cover = cluster_cover(faults)
        if cover.num_polygons == 2:
            assert cover.separation() >= 2

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            cluster_cover(CellSet.empty(SHAPE))

    def test_never_worse_than_single_polygon(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            faults = uniform_random(SHAPE, 10, rng).cells
            from repro.geometry import connect_orthoconvex

            single = connect_orthoconvex(faults)
            cover = cluster_cover(faults)
            assert cover.num_nonfaulty <= len(single) - len(faults)
            _valid(cover, faults)


class TestGuillotineCover:
    def test_splits_on_wide_gap(self):
        faults = (
            shapes.rectangle(SHAPE, (1, 1), 2, 2)
            | shapes.rectangle(SHAPE, (10, 1), 2, 2)
        )
        cover = guillotine_cover(faults)
        assert cover.num_polygons == 2
        _valid(cover, faults)

    def test_no_gap_single_polygon(self):
        faults = shapes.rectangle(SHAPE, (2, 2), 4, 4)
        cover = guillotine_cover(faults)
        assert cover.num_polygons == 1

    def test_respects_min_separation(self):
        # Gap of exactly one column: splitting gives separation 2, the
        # disabled-region floor, so the guillotine takes it.
        faults = CellSet.from_coords(SHAPE, [(3, 3), (5, 3)])
        cover = guillotine_cover(faults)
        assert cover.num_polygons == 2
        assert cover.separation() == 2

    def test_recursive_splitting(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1), (6, 1), (1, 8), (6, 8)])
        cover = guillotine_cover(faults)
        assert cover.num_polygons == 4
        assert cover.num_nonfaulty == 0

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            guillotine_cover(CellSet.empty(SHAPE))


class TestExactCover:
    def test_matches_obvious_optimum(self):
        faults = CellSet.from_coords(SHAPE, [(2, 2), (8, 8)])
        cover = exact_cover(faults)
        assert cover.num_nonfaulty == 0 and cover.num_polygons == 2

    def test_adjacent_faults_one_atom(self):
        faults = CellSet.from_coords(SHAPE, [(2, 2), (2, 3)])
        cover = exact_cover(faults)
        assert cover.num_polygons == 1

    def test_exact_beats_or_ties_heuristics(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            faults = uniform_random((12, 12), 6, rng).cells
            if not faults:
                continue
            exact = exact_cover(faults)
            for heuristic in (cluster_cover, guillotine_cover):
                assert exact.num_nonfaulty <= heuristic(faults).num_nonfaulty

    def test_atom_limit_enforced(self):
        rng = np.random.default_rng(0)
        faults = uniform_random((30, 30), 25, rng).cells
        with pytest.raises(PartitionError):
            exact_cover(faults, max_atoms=5)

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            exact_cover(CellSet.empty(SHAPE))

    def test_separation_floor_respected(self):
        faults = CellSet.from_coords(SHAPE, [(2, 2), (4, 4)])
        cover = exact_cover(faults)
        _valid(cover, faults)
