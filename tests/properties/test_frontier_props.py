"""Property: the sparse frontier kernels ARE the dense Jacobi kernels —
bit-identical labels and identical round counts, on both topologies,
both safety definitions, and every fault regime (empty, single, sparse
random, clustered).  The dense arm is the production bit-packed kernel,
itself checked against the bool-grid reference loops, so frontier ≡
packed ≡ reference.  The warm start the incremental engine runs —
resuming from the fixpoint of ``F1`` seeded with the cells of ``F2`` —
reaches the packed fixpoint of ``F1 ∪ F2``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SafetyDefinition,
    enabled_fixpoint,
    enabled_fixpoint_sparse,
    unsafe_fixpoint,
    unsafe_fixpoint_sparse,
)
from repro.core.enabling import enabled_fixpoint_reference
from repro.core.safety import unsafe_fixpoint_reference
from repro.faults.generators import clustered, uniform_random
from repro.mesh import Mesh2D, Torus2D
from tests.strategies import fault_sets

W = H = 11

definitions = st.sampled_from(list(SafetyDefinition))
topologies = st.sampled_from([Mesh2D(W, H), Torus2D(W, H)])


def assert_kernels_agree(topology, faulty, definition):
    unsafe_r, r1_r = unsafe_fixpoint_reference(topology, faulty, definition)
    for kernel in (unsafe_fixpoint, unsafe_fixpoint_sparse):
        unsafe, r1 = kernel(topology, faulty, definition)
        assert np.array_equal(unsafe, unsafe_r)
        assert r1 == r1_r
    enabled_r, r2_r = enabled_fixpoint_reference(topology, faulty, unsafe_r)
    for kernel in (enabled_fixpoint, enabled_fixpoint_sparse):
        enabled, r2 = kernel(topology, faulty, unsafe_r)
        assert np.array_equal(enabled, enabled_r)
        assert r2 == r2_r


class TestFrontierEquivalence:
    @given(fault_sets(W, H, 14), topologies, definitions)
    @settings(max_examples=60, deadline=None)
    def test_random_fault_sets(self, faults, topology, definition):
        assert_kernels_agree(topology, faults.mask, definition)

    @pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    @pytest.mark.parametrize("f", [0, 1])
    def test_empty_and_singleton(self, topo_cls, definition, f):
        topo = topo_cls(W, H)
        faults = uniform_random(topo.shape, f, np.random.default_rng(3))
        assert_kernels_agree(topo, faults.mask, definition)

    @pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    @pytest.mark.parametrize("seed", range(4))
    def test_clustered_faults(self, topo_cls, definition, seed):
        # Clustered faults build the large merged blocks where multi-round
        # frontier waves actually occur.
        topo = topo_cls(40, 40)
        faults = clustered(
            topo.shape, 60, np.random.default_rng(seed), clusters=3, spread=2.0
        )
        assert_kernels_agree(topo, faults.mask, definition)

    @pytest.mark.parametrize(
        "topo", [Mesh2D(7, 13), Torus2D(13, 7), Mesh2D(1, 9), Torus2D(9, 1)]
    )
    def test_non_square_and_degenerate_grids(self, topo):
        # The flat-index arithmetic must not conflate width and height.
        faults = uniform_random(topo.shape, min(5, topo.num_nodes), np.random.default_rng(1))
        for definition in SafetyDefinition:
            assert_kernels_agree(topo, faults.mask, definition)


class TestWarmStart:
    @given(fault_sets(W, H, 10), fault_sets(W, H, 10), topologies, definitions)
    @settings(max_examples=60, deadline=None)
    def test_resumes_to_the_union_fixpoint(self, f1, f2, topology, definition):
        first, _ = unsafe_fixpoint(topology, f1.mask, definition)
        union = f1.mask | f2.mask
        grid, _ = unsafe_fixpoint_sparse(
            topology, union, definition,
            initial=first, seeds=np.flatnonzero(f2.mask),
        )
        assert np.array_equal(grid, unsafe_fixpoint(topology, union, definition)[0])
