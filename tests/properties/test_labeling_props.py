"""Property-based tests for the labeling pipeline: the paper's claims
must hold on arbitrary fault patterns, not just the figures' examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh, unsafe_fixpoint
from repro.core.theorems import RESULT_CHECKS
from repro.faults import FaultSet
from repro.geometry import CellSet, orthoconvex_closure
from repro.mesh import Mesh2D, Torus2D
from tests.strategies import fault_sets, labeling_results

W = H = 12


definitions = st.sampled_from(list(SafetyDefinition))


class TestSectionFourClaims:
    @given(fault_sets(W, H, 16), definitions)
    @settings(max_examples=60, deadline=None)
    def test_all_theorem_checkers_pass(self, faults, definition):
        result = label_mesh(Mesh2D(W, H), faults, definition)
        for name, check in RESULT_CHECKS.items():
            outcome = check(result)
            assert outcome.holds, (name, outcome.detail)

    @given(fault_sets(W, H, 16))
    @settings(max_examples=30, deadline=None)
    def test_theorem2_explicit(self, faults):
        # Each disabled region IS the orthoconvex closure of its faults.
        result = label_mesh(Mesh2D(W, H), faults)
        for region in result.regions:
            assert orthoconvex_closure(region.faults) == region.cells


class TestLabelInvariants:
    @given(fault_sets(W, H, 16), definitions)
    @settings(max_examples=40, deadline=None)
    def test_label_plane_invariants(self, faults, definition):
        result = label_mesh(Mesh2D(W, H), faults, definition)
        labels = result.labels
        # Faulty => unsafe and disabled; safe => enabled.
        assert not np.any(labels.faulty & ~labels.unsafe)
        assert not np.any(labels.faulty & labels.enabled)
        assert not np.any(~labels.unsafe & ~labels.enabled)

    @given(fault_sets(W, H, 16))
    @settings(max_examples=30, deadline=None)
    def test_unsafe_monotone_in_faults(self, faults):
        # Adding a fault can only grow the unsafe set.
        m = Mesh2D(W, H)
        base, _ = unsafe_fixpoint(m, faults.mask)
        grown_faults = faults.mask.copy()
        grown_faults[0, 0] = True
        grown, _ = unsafe_fixpoint(m, grown_faults)
        assert not np.any(base & ~grown)

    @given(fault_sets(W, H, 16), definitions)
    @settings(max_examples=30, deadline=None)
    def test_region_cells_subset_of_blocks(self, faults, definition):
        result = label_mesh(Mesh2D(W, H), faults, definition)
        block_union = np.zeros((W, H), dtype=bool)
        for b in result.blocks:
            block_union |= b.cells.mask
        for r in result.regions:
            assert not np.any(r.cells.mask & ~block_union)

    @given(labeling_results())
    @settings(max_examples=100, deadline=None)
    def test_regions_lie_inside_one_block(self, result):
        # Disabled regions are local to faulty blocks: each lies inside
        # exactly one block, holds exactly the faults it covers, and
        # together they are the disabled plane.
        labels = result.labels
        block_of = np.full(labels.shape, -1)
        for k, b in enumerate(result.blocks):
            block_of[b.cells.mask] = k
        union = np.zeros(labels.shape, dtype=bool)
        for r in result.regions:
            owners = np.unique(block_of[r.cells.mask])
            assert owners.size == 1 and owners[0] >= 0
            assert r.faults == CellSet(r.cells.mask & labels.faulty)
            union |= r.cells.mask
        assert np.array_equal(union, labels.disabled)

    @given(fault_sets(W, H, 16))
    @settings(max_examples=30, deadline=None)
    def test_fault_conservation(self, faults):
        result = label_mesh(Mesh2D(W, H), faults)
        assert sum(b.num_faults for b in result.blocks) == len(faults)
        assert sum(r.num_faults for r in result.regions) == len(faults)


class TestRoundCounts:
    @given(fault_sets(W, H, 16))
    @settings(max_examples=30, deadline=None)
    def test_rounds_bounded_by_flip_counts(self, faults):
        # The paper claims phase 1 converges "through max{d(B)} rounds";
        # random testing found counterexamples — staggered diagonal
        # chains cascade-merge blocks and need up to ~2.25x the final
        # block diameter (see EXPERIMENTS.md, "deviations").  What *is*
        # provable: every changing round flips at least one node, so the
        # round counts are bounded by the flip counts.
        result = label_mesh(Mesh2D(W, H), faults, SafetyDefinition.DEF_2B)
        assert result.rounds_phase1 <= max(1, result.num_unsafe_nonfaulty)
        assert result.rounds_phase2 <= max(1, result.num_activated)

    def test_paper_round_bound_counterexample(self):
        # Pin the deviation: this 5-fault staggered chain needs 10
        # phase-1 rounds although its single final block has diameter 8.
        faults = FaultSet.from_coords(
            (W, H), [(0, 5), (1, 4), (2, 6), (3, 3), (4, 7)]
        )
        result = label_mesh(Mesh2D(W, H), faults, SafetyDefinition.DEF_2B)
        bound = max(b.diameter for b in result.blocks)
        assert result.rounds_phase1 == 10
        assert bound == 8
        assert result.rounds_phase1 > bound  # the paper's claimed bound fails
        # ... but stays far below the network diameter, preserving the
        # paper's headline observation.
        assert result.rounds_phase1 < Mesh2D(W, H).diameter

    @given(fault_sets(W, H, 16))
    @settings(max_examples=20, deadline=None)
    def test_empty_faults_zero_rounds(self, faults):
        if len(faults) == 0:
            result = label_mesh(Mesh2D(W, H), faults)
            assert result.rounds_phase1 == 0 and result.rounds_phase2 == 0


class TestTorusProperties:
    @given(fault_sets(W, H, 10))
    @settings(max_examples=30, deadline=None)
    def test_torus_claims_hold_in_unwrapped_frame(self, faults):
        result = label_mesh(Torus2D(W, H), faults)
        for name, check in RESULT_CHECKS.items():
            outcome = check(result)
            assert outcome.holds, (name, outcome.detail)

    @given(fault_sets(W, H, 10))
    @settings(max_examples=20, deadline=None)
    def test_torus_shift_invariance(self, faults):
        # Labeling a shifted fault pattern yields shifted labels: the
        # block/region *sizes* are invariant.
        t = Torus2D(W, H)
        r1 = label_mesh(t, faults)
        shifted = FaultSet.from_mask(np.roll(faults.mask, 3, axis=0))
        r2 = label_mesh(t, shifted)
        assert sorted(len(b.cells) for b in r1.blocks) == sorted(
            len(b.cells) for b in r2.blocks
        )
        assert sorted(len(g.cells) for g in r1.regions) == sorted(
            len(g.cells) for g in r2.regions
        )
