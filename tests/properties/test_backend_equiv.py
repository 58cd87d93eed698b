"""Property: the distributed protocol and the vectorized fixpoint are
the same algorithm — identical labels, identical round counts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh
from repro.mesh import Mesh2D, Torus2D
from tests.strategies import fault_sets

W = H = 9


class TestBackendEquivalence:
    @given(fault_sets(W, H, 12), st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=25, deadline=None)
    def test_mesh_equivalence(self, faults, definition):
        m = Mesh2D(W, H)
        rv = label_mesh(m, faults, definition, backend="vectorized")
        rd = label_mesh(m, faults, definition, backend="distributed")
        assert np.array_equal(rv.labels.unsafe, rd.labels.unsafe)
        assert np.array_equal(rv.labels.enabled, rd.labels.enabled)
        assert rv.rounds_phase1 == rd.rounds_phase1
        assert rv.rounds_phase2 == rd.rounds_phase2

    @given(fault_sets(W, H, 8))
    @settings(max_examples=15, deadline=None)
    def test_torus_equivalence(self, faults):
        t = Torus2D(W, H)
        rv = label_mesh(t, faults, backend="vectorized")
        rd = label_mesh(t, faults, backend="distributed")
        assert np.array_equal(rv.labels.unsafe, rd.labels.unsafe)
        assert np.array_equal(rv.labels.enabled, rd.labels.enabled)
        assert rv.unwrap_shift == rd.unwrap_shift

    @given(fault_sets(W, H, 8))
    @settings(max_examples=10, deadline=None)
    def test_chatty_mode_equivalent_labels(self, faults):
        m = Mesh2D(W, H)
        quiet = label_mesh(m, faults, backend="distributed", chatty=False)
        loud = label_mesh(m, faults, backend="distributed", chatty=True)
        assert np.array_equal(quiet.labels.enabled, loud.labels.enabled)
        assert quiet.rounds_phase1 == loud.rounds_phase1
