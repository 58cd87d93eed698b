"""Property: the bit-packed dense fixpoints ARE the bool-grid reference
loops — bit-identical labels, identical round counts and identical
budget errors, on meshes and tori, under Definitions 2a and 2b, for both
phases, at heights on both sides of every 64-bit word boundary.  The
warm start the incremental engine runs — the phase-1 kernel resumed
from the fixpoint of ``F1`` with the cells of ``F2`` added — is the
reference loop from the same plane and reaches the fixpoint of
``F1 ∪ F2``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition
from repro.core.enabling import enabled_fixpoint, enabled_fixpoint_reference
from repro.core.safety import unsafe_fixpoint, unsafe_fixpoint_reference
from repro.errors import ConvergenceError
from repro.geometry._bitplanes import pack, unpack
from repro.mesh import Mesh2D, Torus2D

HEIGHTS = (1, 2, 63, 64, 65, 127, 128, 129)
TOPOLOGIES = (Mesh2D, Torus2D)


def assert_packed_matches_reference(topology, faulty, definition):
    unsafe, r1 = unsafe_fixpoint(topology, faulty, definition)
    unsafe_ref, r1_ref = unsafe_fixpoint_reference(topology, faulty, definition)
    assert unsafe.dtype == bool and unsafe.shape == topology.shape
    assert np.array_equal(unsafe, unsafe_ref)
    assert r1 == r1_ref
    enabled, r2 = enabled_fixpoint(topology, faulty, unsafe_ref)
    enabled_ref, r2_ref = enabled_fixpoint_reference(topology, faulty, unsafe_ref)
    assert enabled.dtype == bool and enabled.shape == topology.shape
    assert np.array_equal(enabled, enabled_ref)
    assert r2 == r2_ref


@st.composite
def instances(draw):
    topo_cls = draw(st.sampled_from(TOPOLOGIES))
    width = draw(st.integers(1, 70))
    height = draw(st.sampled_from(HEIGHTS))
    density = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 2**32 - 1))
    faulty = np.random.default_rng(seed).random((width, height)) < density
    return topo_cls(width, height), faulty


class TestPackedEquivalence:
    @given(instances(), st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=120, deadline=None)
    def test_random_density(self, instance, definition):
        topology, faulty = instance
        assert_packed_matches_reference(topology, faulty, definition)

    @pytest.mark.parametrize("topo_cls", TOPOLOGIES)
    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("width", [1, 2, 5, 70])
    @pytest.mark.parametrize("pattern", ["fault-free", "all-faulty"])
    def test_uniform_planes(self, topo_cls, height, width, pattern):
        topology = topo_cls(width, height)
        faulty = np.full(topology.shape, pattern == "all-faulty")
        for definition in SafetyDefinition:
            assert_packed_matches_reference(topology, faulty, definition)

    @pytest.mark.parametrize("topo_cls", TOPOLOGIES)
    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_single_column(self, topo_cls, height, seed):
        # Width 1: both E/W neighbours are ghost rows (mesh) or the row
        # itself (torus).
        topology = topo_cls(1, height)
        faulty = np.random.default_rng(seed).random(topology.shape) < 0.3
        for definition in SafetyDefinition:
            assert_packed_matches_reference(topology, faulty, definition)

    @pytest.mark.parametrize("topo_cls", TOPOLOGIES)
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_faults_at_the_word_edges(self, topo_cls, height):
        # Faults on the cells next to the ring and to every word
        # boundary, where the N/S carries and the ring slots are read.
        topology = topo_cls(9, height)
        faulty = np.zeros(topology.shape, dtype=bool)
        edges = sorted({0, height - 1} | {y for y in (62, 63, 64, 65, 127, 128) if y < height})
        for x in range(0, 9, 2):
            faulty[x, edges] = True
        for definition in SafetyDefinition:
            assert_packed_matches_reference(topology, faulty, definition)


class TestWarmStart:
    @given(instances(), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1),
           st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=120, deadline=None)
    def test_resumes_to_the_union_fixpoint(self, instance, density, seed, definition):
        topology, f1 = instance
        f2 = np.random.default_rng(seed).random(topology.shape) < density
        plane = unsafe_fixpoint(topology, f1, definition)[0] | f2
        grid, rounds = unsafe_fixpoint(topology, plane, definition)
        grid_ref, rounds_ref = unsafe_fixpoint_reference(topology, plane, definition)
        assert np.array_equal(grid, grid_ref)
        assert rounds == rounds_ref
        assert np.array_equal(grid, unsafe_fixpoint(topology, f1 | f2, definition)[0])


class TestBudget:
    @pytest.mark.parametrize("topo_cls", TOPOLOGIES)
    @pytest.mark.parametrize("height", [64, 65])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_same_convergence_error(self, topo_cls, height, definition):
        # A diagonal staircase needs many rounds in both phases.
        topology = topo_cls(20, height)
        faulty = np.zeros(topology.shape, dtype=bool)
        for i in range(0, 12, 2):
            faulty[i, i + 20] = faulty[i + 1, i + 21] = True
        unsafe, rounds = unsafe_fixpoint_reference(topology, faulty, definition)
        assert rounds >= 2
        errors = []
        for kernel in (unsafe_fixpoint, unsafe_fixpoint_reference):
            with pytest.raises(ConvergenceError) as info:
                kernel(topology, faulty, definition, max_rounds=1)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        _, rounds2 = enabled_fixpoint_reference(topology, faulty, unsafe)
        assert rounds2 >= 2
        errors = []
        for kernel in (enabled_fixpoint, enabled_fixpoint_reference):
            with pytest.raises(ConvergenceError) as info:
                kernel(topology, faulty, unsafe, max_rounds=1)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_same_input_errors(self):
        mesh = Mesh2D(5, 70)
        faulty = np.zeros((5, 70), dtype=bool)
        faulty[2, 66] = True
        for kernel in (unsafe_fixpoint, unsafe_fixpoint_reference):
            with pytest.raises(ConvergenceError, match="shape"):
                kernel(Mesh2D(5, 69), faulty)
        for kernel in (enabled_fixpoint, enabled_fixpoint_reference):
            with pytest.raises(ConvergenceError, match="a faulty node is safe"):
                kernel(mesh, faulty, np.zeros_like(faulty))


@pytest.mark.parametrize("height", HEIGHTS)
def test_pack_round_trip(height):
    plane = np.random.default_rng(height).random((3, height)) < 0.5
    frame = pack(plane)
    assert frame.dtype == np.dtype("<u8")
    assert frame.shape == (5, 1 + -(-height // 64))
    # Ghost rows, guard words and padding bits start clear.
    assert not frame[[0, -1]].any() and not frame[:, 0].any()
    assert np.array_equal(unpack(frame, height), plane)
