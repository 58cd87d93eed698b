"""Unit tests for the theorem checkers (Section 4 claims)."""

import dataclasses

import numpy as np
import pytest

from repro.core import SafetyDefinition, label_mesh
from repro.core.theorems import (
    RESULT_CHECKS,
    check_all,
    check_block_separation,
    check_blocks_rectangular,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_region_separation,
    check_theorem1,
    check_theorem2,
)
from repro.faults import FaultSet, clustered, uniform_random
from repro.geometry.rectangles import Rect
from repro.mesh import Mesh2D


def label(coords, shape=(10, 10), definition=SafetyDefinition.DEF_2B):
    return label_mesh(
        Mesh2D(*shape), FaultSet.from_coords(shape, coords), definition
    )


class TestCheckersOnPaperExample:
    def test_all_claims_hold(self):
        r = label([(1, 3), (2, 1), (3, 2)], shape=(6, 6))
        outcomes = check_all(r, include_quadrant_lemmas=True)
        assert all(o.holds for o in outcomes), [o for o in outcomes if not o]

    def test_outcome_truthiness(self):
        r = label([(2, 2)])
        ok = check_theorem1(r)
        assert ok and ok.holds and ok.detail == ""


class TestCheckersOnStructuredPatterns:
    def test_figure2b_block_stays_one_region(self):
        # Center-gap block: the region is the whole rectangle (closure
        # of the ring of faults fills the gap) — Theorem 2's tightest case.
        coords = [
            (x, y)
            for x in range(1, 5)
            for y in range(1, 4)
            if not (y == 3 and 2 <= x < 4)
        ]
        r = label(coords, shape=(7, 6))
        assert len(r.regions) == 1
        assert len(r.regions[0].cells) == 12
        assert check_theorem1(r).holds
        assert check_theorem2(r).holds
        assert check_lemma1(r).holds

    def test_figure2a_block_sheds_corner(self):
        # Corner-gap block: the region is an L (rectangle minus corner).
        coords = [
            (x, y)
            for x in range(1, 5)
            for y in range(1, 4)
            if not (y == 3 and 3 <= x < 5)
        ]
        r = label(coords, shape=(7, 6))
        assert len(r.regions) == 1
        assert len(r.regions[0].cells) == 10
        for chk in RESULT_CHECKS.values():
            assert chk(r).holds

    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_random_patterns_pass_everything(self, definition):
        rng = np.random.default_rng(31)
        for _ in range(6):
            faults = uniform_random((20, 20), 30, rng)
            r = label_mesh(Mesh2D(20, 20), faults, definition)
            for name, chk in RESULT_CHECKS.items():
                out = chk(r)
                assert out.holds, (name, out.detail)

    def test_clustered_patterns_pass_everything(self):
        rng = np.random.default_rng(32)
        for _ in range(4):
            faults = clustered((20, 20), 30, rng, clusters=2, spread=1.5)
            r = label_mesh(Mesh2D(20, 20), faults)
            outcomes = check_all(r, include_quadrant_lemmas=True)
            assert all(o.holds for o in outcomes), [o for o in outcomes if not o]


class TestCheckersDetectViolations:
    """The checkers must actually *fail* on corrupted results."""

    def _tamper(self, result, **label_overrides):
        # Rebuild a result with hand-corrupted labels, bypassing the
        # pipeline's extraction validation.
        import dataclasses

        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet

        regions = label_overrides.pop("regions")
        return dataclasses.replace(result, regions=regions)

    def test_theorem1_fails_on_concave_region(self):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        r = label([(2, 2)])
        u = shapes.u_shape((10, 10), (4, 4), 5, 4)
        fake = DisabledRegion(cells=u, faults=CellSet.from_coords((10, 10), [(4, 4)]))
        tampered = self._tamper(r, regions=[fake])
        assert not check_theorem1(tampered).holds

    def test_lemma1_fails_on_nonfaulty_corner(self):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        r = label([(2, 2)])
        rect = shapes.rectangle((10, 10), (4, 4), 2, 2)
        fake = DisabledRegion(
            cells=rect, faults=CellSet.from_coords((10, 10), [(4, 4)])
        )
        tampered = self._tamper(r, regions=[fake])
        assert not check_lemma1(tampered).holds

    def test_theorem2_fails_on_inflated_region(self):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        r = label([(2, 2)])
        rect = shapes.rectangle((10, 10), (2, 2), 3, 1)
        fake = DisabledRegion(
            cells=rect, faults=CellSet.from_coords((10, 10), [(2, 2)])
        )
        tampered = self._tamper(r, regions=[fake])
        assert not check_theorem2(tampered).holds


class TestViolationWitnesses:
    """Each checker names the exact witness of the first violation."""

    SHAPE = (10, 10)

    def _region(self, coords, faults=None):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet

        return DisabledRegion(
            cells=CellSet.from_coords(self.SHAPE, coords),
            faults=CellSet.from_coords(self.SHAPE, coords if faults is None else faults),
        )

    def _with_regions(self, *regions):
        return dataclasses.replace(label([(2, 2)]), regions=list(regions))

    @pytest.mark.parametrize("neighbour", [(3, 2), (2, 3)])
    def test_four_adjacent_regions(self, neighbour):
        r = self._with_regions(
            self._region([(7, 7)]), self._region([(2, 2)]), self._region([neighbour])
        )
        out = check_region_separation(r)
        assert not out.holds
        assert out.detail == "regions 1 and 2 at distance 1"

    def test_diagonal_and_column_wrap_neighbours_are_separated(self):
        # (2,2)-(3,3) touch at a corner (distance 2); (2,9)-(3,0) are
        # consecutive row-major keys but not neighbours.
        r = self._with_regions(
            self._region([(2, 2)]), self._region([(3, 3)]),
            self._region([(2, 9)]), self._region([(3, 0)]),
        )
        assert check_region_separation(r).holds

    def test_overlapping_regions(self):
        # (0, 2) overlap and (1, 2) touch: the smallest pair wins, with
        # its own smallest distance.
        r = self._with_regions(
            self._region([(4, 4), (4, 5)]),
            self._region([(6, 4)]),
            self._region([(4, 5), (5, 5)]),
        )
        out = check_region_separation(r)
        assert out.detail == "regions 0 and 2 at distance 0"

    def test_smallest_pair_reports_its_own_distance(self):
        r = self._with_regions(
            self._region([(1, 1)]),
            self._region([(5, 5), (6, 5)]),
            self._region([(5, 6)]),
            self._region([(6, 5)]),
        )
        assert check_region_separation(r).detail == "regions 1 and 2 at distance 1"

    def test_non_rectangular_block(self):
        from repro.geometry import shapes

        r = label([(2, 2), (3, 3)], definition=SafetyDefinition.DEF_2A)
        block = r.blocks[0]
        assert block.rect == Rect(2, 2, 3, 3)
        l_cells = shapes.l_shape(self.SHAPE, (2, 2), 2, 2)
        tampered = dataclasses.replace(
            r, blocks=[dataclasses.replace(block, cells=l_cells)]
        )
        out = check_blocks_rectangular(tampered)
        assert out.detail == (
            "block at Rect(x0=2, y0=2, x1=3, y1=3) is not a full rectangle"
        )

    def test_too_close_blocks(self):
        r = label([(1, 1), (5, 1), (8, 8)], definition=SafetyDefinition.DEF_2A)
        assert [b.rect for b in r.blocks] == [
            Rect(1, 1, 1, 1), Rect(5, 1, 5, 1), Rect(8, 8, 8, 8)
        ]
        # Moved between the other two: both pairs are too close, and the
        # smallest pair is the witness.
        moved = dataclasses.replace(r.blocks[2], rect=Rect(3, 1, 3, 1))
        tampered = dataclasses.replace(r, blocks=[*r.blocks[:2], moved])
        out = check_block_separation(tampered)
        assert out.claim == "block separation >= 3"
        assert out.detail == (
            "blocks Rect(x0=1, y0=1, x1=1, y1=1) and Rect(x0=3, y0=1, x1=3, y1=1) "
            "at distance 2"
        )

    def test_corollary_violation(self):
        # The diagonal faults form one 2x2 block whose two nonfaulty
        # nodes phase 2 frees; disabling one of them again keeps more
        # than the single diagonal polygon would.
        r = label([(2, 2), (3, 3)], definition=SafetyDefinition.DEF_2A)
        assert check_corollary(r).holds
        enabled = r.labels.enabled.copy()
        enabled[2, 3] = False
        tampered = dataclasses.replace(
            r, labels=dataclasses.replace(r.labels, enabled=enabled)
        )
        out = check_corollary(tampered)
        assert out.detail == (
            "block Rect(x0=2, y0=2, x1=3, y1=3): regions keep 1 nonfaulty "
            "disabled, single OCP would keep 0"
        )

    def test_lemma1_region_on_the_grid_edge(self):
        # Beyond-the-grid neighbours count as outside, so every cell of a
        # rectangle on the east edge is a corner along x; the witnesses
        # come back in mesh coordinates.
        rect = [(x, y) for x in (8, 9) for y in (3, 4, 5)]
        ok = self._with_regions(
            self._region(rect, faults=[(8, 3), (9, 3), (8, 5), (9, 5)])
        )
        assert check_lemma1(ok).holds
        bad = self._with_regions(
            self._region([(0, 0)]), self._region(rect, faults=[(8, 3)])
        )
        out = check_lemma1(bad)
        assert out.detail == "region 1 has nonfaulty corners at [(8, 5), (9, 3), (9, 5)]"

    def test_theorem1_gap_column_and_empty_region(self):
        # (2,2) and (4,3) keep every row and column one run, but column 3
        # is empty, so the two cells are no single polygon; the empty set
        # is no region either.
        r = self._with_regions(self._region([(7, 7)]), self._region([(2, 2), (4, 3)]))
        out = check_theorem1(r)
        assert out.detail == "region 1 (CellSet(shape=(10, 10), count=2)) is not orthoconvex"
        r = self._with_regions(self._region([(7, 7)]), self._region([]))
        assert check_theorem1(r).detail.startswith("region 1 (")
        assert check_theorem1(self._with_regions(self._region([(2, 2), (3, 3)]))).holds

    def test_lemma1_neighbours_stay_inside_the_region_and_grid(self):
        # Region 0 fills the two east columns: its top of column 8 and
        # bottom of column 9 are consecutive cells of a full-height pair
        # of columns, and region 1 sits beyond the east edge in key
        # order, yet all four extreme cells are corners.
        east = [(x, y) for x in (8, 9) for y in range(10)]
        r = self._with_regions(
            self._region(east, faults=[(8, 0), (9, 9)]),
            self._region([(0, y) for y in range(10)]),
        )
        out = check_lemma1(r)
        assert out.detail == "region 0 has nonfaulty corners at [(8, 9), (9, 0)]"

    def test_corollary_witness_after_a_block_that_holds(self):
        # Block 0 keeps (1, 2), as the single polygon must too; block 1 is
        # the diagonal pair of test_corollary_violation, disabled again.
        r = label([(1, 1), (1, 3), (2, 2), (6, 6), (7, 7)], definition=SafetyDefinition.DEF_2A)
        assert [b.rect for b in r.blocks] == [Rect(1, 1, 2, 3), Rect(6, 6, 7, 7)]
        assert r.labels.disabled[1, 2] and check_corollary(r).holds
        enabled = r.labels.enabled.copy()
        enabled[7, 6] = False
        tampered = dataclasses.replace(
            r, labels=dataclasses.replace(r.labels, enabled=enabled)
        )
        assert check_corollary(tampered).detail == (
            "block Rect(x0=6, y0=6, x1=7, y1=7): regions keep 1 nonfaulty "
            "disabled, single OCP would keep 0"
        )

    def test_lemma1_full_height_column(self):
        column = [(0, y) for y in range(10)]
        out = check_lemma1(self._with_regions(self._region(column, faults=[(0, 0)])))
        assert out.detail == "region 0 has nonfaulty corners at [(0, 9)]"


class TestQuadrantLemmas:
    def test_lemma2_on_pipeline_regions(self):
        r = label([(2, 2), (3, 3), (2, 4), (4, 2)])
        for region in r.regions:
            assert check_lemma2(region).holds

    def test_lemma3_on_pipeline_regions(self):
        r = label([(2, 2), (3, 3), (4, 4)])
        for region in r.regions:
            assert check_lemma3(region).holds

    def test_lemma2_holds_even_on_concave_regions(self):
        # Lemma 2's proof is constructive and never uses convexity: the
        # (extreme-y, then extreme-x) node of a quadrant is always a
        # corner.  So the lemma holds for arbitrary regions — including
        # a U — and the checker must agree.
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        u = shapes.u_shape((10, 10), (1, 1), 5, 4)
        fake = DisabledRegion(
            cells=u, faults=CellSet.from_coords((10, 10), [(1, 1)])
        )
        assert check_lemma2(fake).holds


class TestCorollary:
    def test_corollary_on_sparse_block(self):
        r = label([(1, 3), (2, 1), (3, 2)], shape=(6, 6))
        assert check_corollary(r).holds

    @pytest.mark.parametrize("seed", range(3))
    def test_corollary_on_random(self, seed):
        rng = np.random.default_rng(seed + 50)
        faults = clustered((16, 16), 18, rng, clusters=2, spread=1.2)
        r = label_mesh(Mesh2D(16, 16), faults)
        assert check_corollary(r).holds
