"""Unit tests for the incremental labeling engine (inject, repair, reports)."""

import numpy as np
import pytest

from repro.core import IncrementalLabeling, SafetyDefinition, label_mesh
from repro.faults import FaultSet, uniform_random
from repro.mesh import Mesh2D, Torus2D


class TestConstruction:
    def test_starts_fault_free(self):
        m = IncrementalLabeling(Mesh2D(8, 8))
        assert len(m.faults) == 0
        assert m.blocks_view() == [] and m.regions_view() == []
        assert m.labels.enabled.all()

    def test_torus_supported(self):
        m = IncrementalLabeling(Torus2D(8, 8))
        m.inject([(0, 0), (7, 7), (0, 7)])
        assert m.verify_against_scratch()


class TestInjection:
    def test_single_injection_matches_scratch(self):
        m = IncrementalLabeling(Mesh2D(10, 10))
        m.inject([(2, 2), (3, 3)])
        assert m.verify_against_scratch()

    def test_incremental_sequence_matches_scratch(self):
        m = IncrementalLabeling(Mesh2D(12, 12))
        rng = np.random.default_rng(0)
        for _ in range(6):
            batch = uniform_random((12, 12), 3, rng)
            m.inject(batch)
            assert m.verify_against_scratch()

    def test_empty_injection_free(self):
        m = IncrementalLabeling(Mesh2D(8, 8))
        report = m.inject([])
        assert report.rounds_phase1 == 0 and report.rounds_phase2 == 0

    def test_duplicate_faults_idempotent(self):
        m = IncrementalLabeling(Mesh2D(8, 8))
        m.inject([(3, 3)])
        before = m.labels
        report = m.inject([(3, 3)])
        assert report.newly_unsafe == 0
        assert report.injected == ()
        assert np.array_equal(m.labels.unsafe, before.unsafe)

    def test_out_of_range_rejected(self):
        from repro.errors import TopologyError

        m = IncrementalLabeling(Mesh2D(8, 8))
        with pytest.raises(TopologyError):
            m.inject([(9, 0)])

    def test_accepts_faultset_or_list(self):
        m = IncrementalLabeling(Mesh2D(8, 8))
        m.inject(FaultSet.from_coords((8, 8), [(1, 1)]))
        m.inject([(5, 5)])
        assert len(m.faults) == 2


class TestReports:
    def test_growth_reported(self):
        m = IncrementalLabeling(Mesh2D(10, 10))
        # Two diagonal faults: the block becomes a 2x2 square with 2
        # nonfaulty nodes, which phase 2 immediately re-enables — so
        # they flip to unsafe but never lose enabled status.
        report = m.inject([(4, 4), (5, 5)])
        assert report.newly_unsafe == 2
        assert report.newly_activated == 0   # they were enabled all along
        assert report.newly_disabled == 0

    def test_new_fault_can_disable_activated_nodes(self):
        m = IncrementalLabeling(Mesh2D(10, 10))
        m.inject([(4, 4), (5, 5)])   # diagonal pair, gaps re-enabled
        # Extending the diagonal grows the block to 3x3; the engine
        # re-solves it and must still agree with scratch labeling.
        report = m.inject([(6, 6)])
        assert m.verify_against_scratch()
        assert report.injected == ((6, 6),)

    def test_snapshot_equivalent_to_scratch_result(self):
        m = IncrementalLabeling(Mesh2D(10, 10))
        rng = np.random.default_rng(2)
        m.inject(uniform_random((10, 10), 8, rng))
        snap = m.snapshot()
        scratch = label_mesh(Mesh2D(10, 10), m.faults)
        assert np.array_equal(snap.labels.enabled, scratch.labels.enabled)
        assert len(snap.blocks) == len(scratch.blocks)
        assert snap.backend == "incremental"

    def test_snapshot_rounds_total_the_updates(self):
        m = IncrementalLabeling(Mesh2D(12, 12))
        reports = [m.inject([(4, 4), (5, 5)]), m.inject([(6, 6)])]
        snap = m.snapshot()
        assert snap.rounds_phase1 == sum(r.rounds_phase1 for r in reports)
        assert snap.rounds_phase2 == sum(r.rounds_phase2 for r in reports)


class TestRepair:
    def test_repair_restores_prior_labels(self):
        m = IncrementalLabeling(Mesh2D(12, 12))
        m.inject([(4, 4), (5, 5)])
        before = m.labels
        m.inject([(6, 6)])
        report = m.repair([(6, 6)])
        assert report.repaired == ((6, 6),) and report.injected == ()
        assert np.array_equal(m.labels.unsafe, before.unsafe)
        assert np.array_equal(m.labels.enabled, before.enabled)
        assert m.verify_against_scratch()

    def test_repair_everything_returns_to_pristine(self):
        m = IncrementalLabeling(Mesh2D(12, 12))
        rng = np.random.default_rng(7)
        batch = uniform_random((12, 12), 10, rng)
        m.inject(batch)
        report = m.repair(batch)
        assert len(m.faults) == 0
        assert m.labels.enabled.all() and not m.labels.unsafe.any()
        assert report.newly_safe > 0

    def test_repair_nonfaulty_is_noop(self):
        m = IncrementalLabeling(Mesh2D(8, 8))
        m.inject([(2, 2)])
        report = m.repair([(6, 6)])
        assert report.newly_safe == 0
        assert report.rounds_phase1 == 0 and report.rounds_phase2 == 0
        assert len(m.faults) == 1

    def test_repair_splits_a_block(self):
        # Healing the bridge fault of an L-shaped cluster must shrink or
        # split the standing block, exactly as scratch labeling would.
        m = IncrementalLabeling(Mesh2D(14, 14), SafetyDefinition.DEF_2A)
        m.inject([(4, 4), (5, 4), (6, 4), (6, 5), (6, 6)])
        m.repair([(6, 4)])
        assert m.verify_against_scratch()

    def test_interleaved_inject_repair_matches_scratch(self):
        m = IncrementalLabeling(Mesh2D(12, 12))
        rng = np.random.default_rng(11)
        live = []
        for _ in range(30):
            if live and rng.random() < 0.5:
                c = live.pop(int(rng.integers(len(live))))
                m.repair([c])
            else:
                c = (int(rng.integers(12)), int(rng.integers(12)))
                if not m.is_faulty(c):
                    live.append(c)
                m.inject([c])
            assert m.verify_against_scratch()


class TestWarmStartEfficiency:
    def test_incremental_rounds_never_exceed_scratch(self):
        # Build a large cluster, then add one nearby fault: the warm
        # start converges in no more rounds than from-scratch labeling.
        mesh = Mesh2D(16, 16)
        base = [(4, 4), (5, 5), (6, 6), (7, 7)]
        m = IncrementalLabeling(mesh)
        m.inject(base)
        report = m.inject([(8, 8)])
        scratch = label_mesh(mesh, m.faults)
        assert report.rounds_phase1 <= scratch.rounds_phase1

    def test_distant_fault_costs_no_phase1_rounds(self):
        # A fresh isolated fault changes nothing beyond itself.
        m = IncrementalLabeling(Mesh2D(16, 16))
        m.inject([(3, 3), (4, 4)])
        report = m.inject([(12, 12)])
        assert report.rounds_phase1 == 0

    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_both_definitions_supported(self, definition):
        m = IncrementalLabeling(Mesh2D(10, 10), definition)
        rng = np.random.default_rng(4)
        m.inject(uniform_random((10, 10), 10, rng))
        assert m.verify_against_scratch()


class TestBlockSolve:
    def test_large_block_matches_scratch(self):
        # A 70x70 block: larger than the small-mesh property tests reach.
        side = 70
        mesh = Mesh2D(side + 4, side + 4)
        m = IncrementalLabeling(mesh)
        diagonal = [(2 + i, 2 + i) for i in range(side)]
        report = m.inject(diagonal)
        assert m.verify_against_scratch()
        scratch = label_mesh(mesh, m.faults)
        assert report.rounds_phase2 == scratch.rounds_phase2
