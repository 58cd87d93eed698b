"""Unit tests for the two-phase pipeline entry point."""

import numpy as np
import pytest

from repro.core import SafetyDefinition, label_mesh
from repro.core import frontier
from repro.core.batch import label_batch
from repro.faults import FaultSet, uniform_random
from repro.mesh import Mesh2D, Torus2D


class TestLabelMesh:
    def test_result_carries_inputs(self):
        m = Mesh2D(8, 8)
        faults = FaultSet.from_coords((8, 8), [(2, 2)])
        r = label_mesh(m, faults, SafetyDefinition.DEF_2A)
        assert r.topology is m
        assert r.faults is faults
        assert r.definition is SafetyDefinition.DEF_2A
        assert r.backend == "vectorized"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            label_mesh(Mesh2D(8, 8), FaultSet.none((7, 7)))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            label_mesh(Mesh2D(4, 4), FaultSet.none((4, 4)), backend="quantum")

    def test_backends_agree(self):
        rng = np.random.default_rng(3)
        m = Mesh2D(12, 12)
        faults = uniform_random(m.shape, 20, rng)
        rv = label_mesh(m, faults, backend="vectorized")
        rd = label_mesh(m, faults, backend="distributed")
        assert np.array_equal(rv.labels.unsafe, rd.labels.unsafe)
        assert np.array_equal(rv.labels.enabled, rd.labels.enabled)
        assert (rv.rounds_phase1, rv.rounds_phase2) == (
            rd.rounds_phase1,
            rd.rounds_phase2,
        )
        assert rd.stats_phase1 is not None and rv.stats_phase1 is None

    def test_torus_supported(self):
        t = Torus2D(10, 10)
        faults = FaultSet.from_coords((10, 10), [(0, 0), (9, 9)])
        r = label_mesh(t, faults)
        assert len(r.blocks) == 1  # wrap-diagonal pair joins one block


class TestKernelChoice:
    @pytest.mark.parametrize("side, count", [(1000, 250), (100, 100)])
    def test_never_runs_frontier(self, monkeypatch, side, count):
        # The sparse instances a sparsity rule would send to the frontier
        # kernels: one-shot labeling runs the packed kernels regardless.
        # Every frontier loop gathers neighbours through one helper.
        def refuse(*args, **kwargs):
            raise AssertionError("a frontier kernel ran")

        monkeypatch.setattr(frontier, "_neighbor_indices", refuse)
        m = Mesh2D(side, side)
        faulty = uniform_random(m.shape, count, np.random.default_rng(0)).mask
        for d in SafetyDefinition:
            r = label_mesh(m, FaultSet.from_mask(faulty), d)
            assert r.method == "dense"
            out = label_batch(m, faulty[None], d)
            assert (out.rounds_phase1[0], out.rounds_phase2[0]) == (
                r.rounds_phase1,
                r.rounds_phase2,
            )


class TestResultMetrics:
    def _paper_example(self):
        m = Mesh2D(6, 6)
        faults = FaultSet.from_coords((6, 6), [(1, 3), (2, 1), (3, 2)])
        return label_mesh(m, faults)

    def test_enabled_ratio_of_paper_example_is_one(self):
        r = self._paper_example()
        assert r.num_unsafe_nonfaulty == 6
        assert r.num_activated == 6
        assert r.enabled_ratio == 1.0

    def test_per_block_ratios(self):
        r = self._paper_example()
        assert r.per_block_enabled_ratios() == [1.0]

    def test_ratio_defined_without_unsafe_nodes(self):
        m = Mesh2D(6, 6)
        r = label_mesh(m, FaultSet.from_coords((6, 6), [(3, 3)]))
        assert r.num_unsafe_nonfaulty == 0
        assert r.enabled_ratio == 1.0
        assert r.per_block_enabled_ratios() == []

    def test_summary_keys(self):
        r = self._paper_example()
        s = r.summary()
        assert s["f"] == 3
        assert s["num_blocks"] == 1
        assert s["num_regions"] == 2
        assert s["rounds_phase1"] == 3 and s["rounds_phase2"] == 3
        assert s["enabled_ratio"] == 1.0

    def test_zero_ratio_case(self):
        # A center-gap block (Figure 2(b)) keeps its nonfaulty nodes
        # disabled: per-block ratio 0.
        coords = [
            (x, y)
            for x in range(1, 5)
            for y in range(1, 4)
            if not (y == 3 and 2 <= x < 4)
        ]
        m = Mesh2D(7, 6)
        r = label_mesh(m, FaultSet.from_coords((7, 6), coords))
        assert r.per_block_enabled_ratios() == [0.0]
        assert r.enabled_ratio == 0.0
