"""Unit tests for FaultCover validation and scoring."""

import pytest

from repro.errors import PartitionError
from repro.geometry import CellSet, shapes
from repro.partition import FaultCover

SHAPE = (12, 12)


class TestBuildValidation:
    def test_valid_cover(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1), (5, 5)])
        polys = [
            CellSet.from_coords(SHAPE, [(1, 1)]),
            CellSet.from_coords(SHAPE, [(5, 5)]),
        ]
        cover = FaultCover.build(faults, polys)
        assert cover.num_polygons == 2
        assert cover.num_nonfaulty == 0

    def test_rejects_uncovered_fault(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1), (5, 5)])
        with pytest.raises(PartitionError):
            FaultCover.build(faults, [CellSet.from_coords(SHAPE, [(1, 1)])])

    def test_rejects_overlapping_polygons(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1)])
        a = shapes.rectangle(SHAPE, (0, 0), 3, 3)
        b = shapes.rectangle(SHAPE, (2, 2), 3, 3)
        with pytest.raises(PartitionError):
            FaultCover.build(faults, [a, b])

    def test_rejects_non_orthoconvex_polygon(self):
        faults = CellSet.from_coords(SHAPE, [(2, 2)])
        u = shapes.u_shape(SHAPE, (1, 1), 5, 4)
        with pytest.raises(PartitionError):
            FaultCover.build(faults, [u])

    def test_rejects_empty_faults(self):
        with pytest.raises(PartitionError):
            FaultCover.build(CellSet.empty(SHAPE), [])


class TestScoring:
    def test_nonfaulty_count(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1), (2, 2)])
        square = shapes.rectangle(SHAPE, (1, 1), 2, 2)
        cover = FaultCover.build(faults, [square])
        assert cover.total_cells == 4
        assert cover.num_nonfaulty == 2

    def test_improvement_over(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1), (2, 2)])
        coarse = FaultCover.build(faults, [shapes.rectangle(SHAPE, (1, 1), 2, 2)])
        fine = FaultCover.build(faults, [faults])  # diagonal pair is orthoconvex
        assert fine.improvement_over(coarse) == 2

    def test_separation(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1), (6, 1)])
        cover = FaultCover.build(
            faults,
            [
                CellSet.from_coords(SHAPE, [(1, 1)]),
                CellSet.from_coords(SHAPE, [(6, 1)]),
            ],
        )
        assert cover.separation() == 5

    def test_single_polygon_separation_sentinel(self):
        faults = CellSet.from_coords(SHAPE, [(1, 1)])
        cover = FaultCover.build(faults, [faults])
        assert cover.separation() >= 10**9
