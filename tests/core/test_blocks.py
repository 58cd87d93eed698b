"""Unit tests for faulty-block extraction."""

import numpy as np
import pytest

from repro.core import SafetyDefinition, extract_blocks, unsafe_fixpoint
from repro.errors import GeometryError
from repro.faults import FaultSet
from repro.geometry import Rect
from repro.mesh import Mesh2D


def blocks_for(coords, shape=(10, 10), definition=SafetyDefinition.DEF_2B):
    m = Mesh2D(*shape)
    f = FaultSet.from_coords(shape, coords).mask
    unsafe, _ = unsafe_fixpoint(m, f, definition)
    return extract_blocks(unsafe, f)


class TestExtraction:
    def test_no_faults_no_blocks(self):
        assert blocks_for([]) == []

    def test_isolated_faults_are_singleton_blocks(self):
        blocks = blocks_for([(1, 1), (5, 5), (8, 2)])
        assert len(blocks) == 3
        assert all(b.rect.area == 1 for b in blocks)
        assert all(b.num_faults == 1 and b.num_nonfaulty == 0 for b in blocks)

    def test_paper_example_single_block(self):
        blocks = blocks_for([(1, 3), (2, 1), (3, 2)], shape=(6, 6))
        assert len(blocks) == 1
        b = blocks[0]
        assert b.rect == Rect(1, 1, 3, 3)
        assert b.num_faults == 3 and b.num_nonfaulty == 6
        assert b.diameter == 4
        assert b.reducible

    def test_block_ordering_deterministic(self):
        blocks = blocks_for([(8, 8), (0, 0)])
        assert blocks[0].rect == Rect(0, 0, 0, 0)

    def test_faults_partition_across_blocks(self):
        blocks = blocks_for([(1, 1), (2, 2), (7, 7)])
        total_faults = sum(b.num_faults for b in blocks)
        assert total_faults == 3

    def test_non_reducible_block(self):
        blocks = blocks_for([(4, 4)])
        assert not blocks[0].reducible


class TestValidation:
    def test_fault_outside_unsafe_rejected(self):
        f = np.zeros((5, 5), dtype=bool)
        f[1, 1] = True
        with pytest.raises(GeometryError):
            extract_blocks(np.zeros((5, 5), dtype=bool), f)

    def test_non_rectangular_component_rejected(self):
        # Hand-craft a (corrupt) L-shaped unsafe component.
        unsafe = np.zeros((5, 5), dtype=bool)
        for c in [(0, 0), (1, 0), (0, 1)]:
            unsafe[c] = True
        f = np.zeros((5, 5), dtype=bool)
        f[0, 0] = True
        with pytest.raises(GeometryError):
            extract_blocks(unsafe, f)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            extract_blocks(
                np.zeros((5, 5), dtype=bool), np.zeros((4, 4), dtype=bool)
            )


class TestRectangularityAcrossPatterns:
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    @pytest.mark.parametrize("seed", range(5))
    def test_random_patterns_yield_rectangles(self, definition, seed):
        rng = np.random.default_rng(seed)
        from repro.faults import uniform_random

        m = Mesh2D(15, 15)
        f = uniform_random((15, 15), 20, rng).mask
        unsafe, _ = unsafe_fixpoint(m, f, definition)
        blocks = extract_blocks(unsafe, f)  # raises if non-rectangular
        # Blocks must tile the unsafe mask exactly.
        assert sum(len(b.cells) for b in blocks) == int(unsafe.sum())

    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_block_separation_guarantee(self, definition):
        rng = np.random.default_rng(77)
        from repro.faults import uniform_random

        m = Mesh2D(20, 20)
        need = definition.min_block_separation
        for _ in range(10):
            f = uniform_random((20, 20), 30, rng).mask
            unsafe, _ = unsafe_fixpoint(m, f, definition)
            blocks = extract_blocks(unsafe, f)
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    assert blocks[i].rect.distance(blocks[j].rect) >= need


class TestLazyCells:
    def setup_method(self):
        from repro.core import label_mesh
        from repro.faults.generators import uniform_random

        faults = uniform_random((30, 30), 60, np.random.default_rng(3))
        self.result = label_mesh(Mesh2D(30, 30), faults, SafetyDefinition.DEF_2A)

    def test_size_and_geometry_reads_leave_masks_unbuilt(self):
        r = self.result
        assert any(b.reducible for b in r.blocks)
        for b in r.blocks:
            assert b.cells.bounding_box() == (b.rect.x0, b.rect.y0, b.rect.x1, b.rect.y1)
            assert b.cells.diameter() == b.diameter
            assert len(b.cells) == b.rect.area and b.num_faults >= 0
        for reg in r.regions:
            reg.cells.bounding_box()
            assert reg.diameter == reg.cells.diameter()
            assert len(reg.cells) >= len(reg.faults) > 0
        r.per_block_enabled_ratios()
        parts = [(x.cells, x.faults) for x in r.blocks + r.regions]
        assert all(c._mask is None and f._mask is None for c, f in parts)

    def test_masks_built_on_read_match_labels(self):
        r = self.result
        unsafe = np.zeros(r.labels.faulty.shape, dtype=bool)
        disabled = np.zeros_like(unsafe)
        for b in r.blocks:
            unsafe |= b.cells.mask
            assert np.array_equal(b.faults.mask, b.cells.mask & r.labels.faulty)
        for reg in r.regions:
            disabled |= reg.cells.mask
            assert np.array_equal(reg.faults.mask, reg.cells.mask & r.labels.faulty)
        assert np.array_equal(unsafe, r.labels.unsafe)
        assert np.array_equal(disabled, r.labels.disabled)

    def test_per_block_ratios_match_mask_formula(self):
        r = self.result
        want = []
        for b in r.blocks:
            nonfaulty = b.cells.mask & ~r.labels.faulty
            if nonfaulty.any():
                want.append(int((nonfaulty & r.labels.enabled).sum()) / int(nonfaulty.sum()))
        assert r.per_block_enabled_ratios() == want
