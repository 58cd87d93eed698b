"""Property-based tests for the open-problem cover heuristics."""

from hypothesis import given, settings

from repro.geometry import (
    CellSet,
    connect_orthoconvex,
    is_orthoconvex,
)
from repro.partition import FaultCover, cluster_cover, exact_cover, guillotine_cover
from tests.strategies import fault_sets

W = H = 14


def fault_cells(max_cells):
    """Non-empty fault sets as cell sets, the covers' input type."""
    return fault_sets(W, H, max_cells, min_faults=1).map(lambda f: f.cells)


def _check_valid(cover: FaultCover, faults: CellSet) -> None:
    union = CellSet.empty(faults.shape)
    for p in cover.polygons:
        assert is_orthoconvex(p)
        assert union.isdisjoint(p)
        union = union | p
    assert faults <= union
    assert cover.separation() >= 2


class TestHeuristicCovers:
    @given(fault_cells(8))
    @settings(max_examples=40, deadline=None)
    def test_cluster_cover_always_valid(self, faults):
        _check_valid(cluster_cover(faults), faults)

    @given(fault_cells(8))
    @settings(max_examples=40, deadline=None)
    def test_guillotine_cover_always_valid(self, faults):
        _check_valid(guillotine_cover(faults), faults)

    @given(fault_cells(8))
    @settings(max_examples=30, deadline=None)
    def test_heuristics_never_worse_than_single_polygon(self, faults):
        baseline = len(connect_orthoconvex(faults)) - len(faults)
        assert cluster_cover(faults).num_nonfaulty <= baseline
        assert guillotine_cover(faults).num_nonfaulty <= baseline

    @given(fault_cells(6))
    @settings(max_examples=20, deadline=None)
    def test_exact_lower_bounds_heuristics(self, faults):
        exact = exact_cover(faults)
        _check_valid(exact, faults)
        assert exact.num_nonfaulty <= cluster_cover(faults).num_nonfaulty
        assert exact.num_nonfaulty <= guillotine_cover(faults).num_nonfaulty
