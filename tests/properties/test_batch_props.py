"""Property: labeling a stack of planes IS labeling each plane alone.

* Kernels — the packed Jacobi loop, run over a ``(T, width, height)``
  stack, returns every plane's bool-grid reference
  fixpoint and round count, on meshes and tori, under Definitions 2a
  and 2b, for both phases, at heights on both sides of the 64-bit word
  boundaries; a budget too small for some plane raises the reference's
  ``ConvergenceError``.
* Frames — the frame-returning loop behind them, fed the word-built
  inputs :func:`~repro.core.batch.label_batch` builds, unpacks to the
  same planes and round counts; the frames extraction scans, once their
  ring is masked (on a mesh, as they are), are exactly the packed
  planes, so the run scan reads no ring bit.
* Batch — :func:`repro.core.batch.label_batch` returns, for every
  plane, the round counts, block and region counts and per-block
  enabled ratios of ``label_mesh`` on that plane alone, and on a mesh
  packs its fault stack once and unpacks nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, _packed, batch, enabling, safety
from repro.core.batch import label_batch
from repro.core.enabling import enabled_fixpoint_reference, enabled_fixpoints
from repro.core.pipeline import label_mesh
from repro.core.safety import unsafe_fixpoint_reference, unsafe_fixpoints
from repro.errors import ConvergenceError
from repro.faults import FaultSet
from repro.geometry._bitplanes import frame_runs, pack, scan_runs, unpack
from repro.mesh import Mesh2D, Torus2D

HEIGHTS = (1, 63, 64, 65, 129)
TOPOLOGIES = (Mesh2D, Torus2D)


@st.composite
def stacks(draw, max_width=40, max_density=0.6):
    topo_cls = draw(st.sampled_from(TOPOLOGIES))
    width = draw(st.integers(1, max_width))
    height = draw(st.sampled_from(HEIGHTS))
    planes = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Each plane draws its own density, so dense and sparse planes and
    # planes of very different round counts share a stack.
    density = rng.uniform(0.0, max_density, size=(planes, 1, 1))
    faulty = rng.random((planes, width, height)) < density
    return topo_cls(width, height), faulty


def references(topology, faulty, definition):
    """Per-plane reference planes and rounds of both phases."""
    unsafe, r1, enabled, r2 = [], [], [], []
    for plane in faulty:
        u, a = unsafe_fixpoint_reference(topology, plane, definition)
        e, b = enabled_fixpoint_reference(topology, plane, u)
        unsafe.append(u), r1.append(a), enabled.append(e), r2.append(b)
    return np.array(unsafe), r1, np.array(enabled), r2


class TestStackedKernels:
    @given(stacks(), st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=80, deadline=None)
    def test_every_plane_matches_its_reference(self, stack, definition):
        topology, faulty = stack
        budget = topology.num_nodes + 2
        unsafe_ref, r1_ref, enabled_ref, r2_ref = references(topology, faulty, definition)
        unsafe, r1 = unsafe_fixpoints(topology, faulty, definition, budget)
        assert unsafe.shape == faulty.shape and unsafe.dtype == bool
        assert np.array_equal(unsafe, unsafe_ref)
        assert r1.tolist() == r1_ref
        enabled, r2 = enabled_fixpoints(topology, faulty, unsafe_ref, budget)
        assert enabled.shape == faulty.shape and enabled.dtype == bool
        assert np.array_equal(enabled, enabled_ref)
        assert r2.tolist() == r2_ref

    @pytest.mark.parametrize("topo_cls", TOPOLOGIES)
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_planes_never_read_each_other(self, topo_cls, height):
        # Alternating all-faulty and fault-free planes: every ghost row
        # and ring slot between them is read, and none may leak.
        topology = topo_cls(7, height)
        faulty = np.zeros((4, 7, height), dtype=bool)
        faulty[::2] = True
        faulty[1, 3, height // 2] = True  # one lone fault beside a full plane
        for definition in SafetyDefinition:
            refs = references(topology, faulty, definition)
            unsafe_ref, r1_ref, enabled_ref, r2_ref = refs
            budget = topology.num_nodes
            unsafe, r1 = unsafe_fixpoints(topology, faulty, definition, budget)
            assert np.array_equal(unsafe, unsafe_ref) and r1.tolist() == r1_ref
            enabled, r2 = enabled_fixpoints(topology, faulty, unsafe_ref, budget)
            assert np.array_equal(enabled, enabled_ref) and r2.tolist() == r2_ref

    @given(stacks(max_density=0.5), st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=40, deadline=None)
    def test_budget_of_one_round(self, stack, definition):
        # The stack raises the reference's error iff some plane needs
        # more than one changing round; otherwise it converges.
        topology, faulty = stack

        def first_error(runs):
            for run in runs:
                try:
                    run()
                except ConvergenceError as exc:
                    return str(exc)
            return None

        def check(kernel, expected, *args):
            if expected is None:
                kernel(topology, faulty, *args, 1)
            else:
                with pytest.raises(ConvergenceError) as info:
                    kernel(topology, faulty, *args, 1)
                assert str(info.value) == expected

        expected = first_error(
            lambda p=p: unsafe_fixpoint_reference(topology, p, definition, max_rounds=1)
            for p in faulty
        )
        check(unsafe_fixpoints, expected, definition)
        unsafe_ref = references(topology, faulty, definition)[0]
        expected = first_error(
            lambda p=p, u=u: enabled_fixpoint_reference(topology, p, u, max_rounds=1)
            for p, u in zip(faulty, unsafe_ref)
        )
        check(enabled_fixpoints, expected, unsafe_ref)


class TestPackedFrames:
    @given(stacks(), st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=80, deadline=None)
    def test_frames_unpack_to_the_references(self, stack, definition):
        # Phase 1 from the packed faults, phase 2 from keep & ~unsafe,
        # both under keep = valid & ~faulty, as label_batch runs them.
        topology, faulty = stack
        height, budget = topology.height, topology.num_nodes + 2
        unsafe_ref, r1_ref, enabled_ref, r2_ref = references(topology, faulty, definition)
        valid = pack(np.ones(topology.shape, dtype=bool))
        keep = valid & ~pack(faulty)
        rule = _packed.RULES[definition]
        unsafe, r1 = _packed.fixpoint(topology, pack(faulty), keep, rule, False, budget)
        assert np.array_equal(unpack(unsafe, height), unsafe_ref)
        assert r1.tolist() == r1_ref
        enabled, r2 = _packed.fixpoint(
            topology, keep & ~unsafe, keep, _packed.two_of_four, True, budget
        )
        assert np.array_equal(unpack(enabled, height), enabled_ref)
        assert r2.tolist() == r2_ref
        # Extraction scans the unsafe frame (on a mesh as the loop returns
        # it) and unsafe & ~enabled.  Once the ring is masked, neither has
        # a padding, guard or ghost-row bit set: each is its packed planes
        # word for word, and the run scan cuts exactly their runs.
        disabled = unsafe & ~enabled
        if not topology.wraps:
            assert np.array_equal(unsafe, pack(unsafe_ref))
            assert np.array_equal(disabled, pack(unsafe_ref & ~enabled_ref))
            # The enabled ring holds the ghost label True: never scanned.
            assert not np.array_equal(enabled, pack(enabled_ref))
        for frame, ref in ((unsafe, unsafe_ref), (disabled, unsafe_ref & ~enabled_ref)):
            frame &= valid
            assert np.array_equal(frame, pack(ref))
            assert all(map(np.array_equal, frame_runs(frame), scan_runs(ref)))


def label_mesh_rows(topology, faulty, definition):
    rows = []
    for plane in faulty:
        try:
            result = label_mesh(topology, FaultSet.from_mask(plane), definition)
        except ValueError:  # a torus plane with no planar view
            rows.append(None)
            continue
        rows.append(
            (
                result.rounds_phase1,
                result.rounds_phase2,
                len(result.blocks),
                len(result.regions),
                result.per_block_enabled_ratios(),
            )
        )
    return rows


def batch_rows(topology, faulty, definition):
    out = label_batch(topology, faulty, definition)
    rows = zip(
        out.rounds_phase1.tolist(),
        out.rounds_phase2.tolist(),
        out.num_blocks.tolist(),
        out.num_regions.tolist(),
        out.enabled_ratios,
    )
    return [row if planar else None for row, planar in zip(rows, out.planar.tolist())]


class TestLabelBatch:
    @given(stacks(max_density=0.35), st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=80, deadline=None)
    def test_matches_label_mesh_per_plane(self, stack, definition):
        # A torus plane with no planar view is reported, not raised on,
        # and leaves the other planes' rows as they are.
        topology, faulty = stack
        assert batch_rows(topology, faulty, definition) == label_mesh_rows(
            topology, faulty, definition
        )

    @pytest.mark.parametrize("topo_cls", TOPOLOGIES)
    def test_no_component_spans_two_planes(self, topo_cls):
        # Plane 0 ends and plane 1 starts with faulty columns at the same
        # rows; without the empty column between planes in the stacked
        # scan they would merge into one block and one region.
        topology = topo_cls(6, 9)
        faulty = np.zeros((3, 6, 9), dtype=bool)
        faulty[0, -1, 2:4] = True
        faulty[1, 0, 2:4] = True
        faulty[2, 0, 3] = faulty[2, -1, 4] = True
        rows = batch_rows(topology, faulty, SafetyDefinition.DEF_2B)
        assert rows == label_mesh_rows(topology, faulty, SafetyDefinition.DEF_2B)
        assert [r[2] for r in rows] == ([1, 1, 1] if topo_cls is Torus2D else [1, 1, 2])

    def test_ratios_keep_block_order(self):
        # Several reducible blocks per plane with different ratios.
        topology = Mesh2D(30, 30)
        rng = np.random.default_rng(7)
        faulty = rng.random((4, 30, 30)) < 0.15
        definition = SafetyDefinition.DEF_2B
        rows = batch_rows(topology, faulty, definition)
        assert rows == label_mesh_rows(topology, faulty, definition)
        assert sum(len(set(r[4])) > 1 for r in rows) >= 2

    def test_mesh_stack_packs_once_and_never_unpacks(self, monkeypatch):
        calls = {"pack": 0, "unpack": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        # The bool fixpoints pack and unpack too: label_batch calls none.
        for module in (batch, enabling, safety):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        topology = Mesh2D(30, 65)
        faulty = np.random.default_rng(11).random((6, 30, 65)) < 0.08
        for definition in SafetyDefinition:
            calls.update(pack=0, unpack=0)
            rows = batch_rows(topology, faulty, definition)
            assert calls == {"pack": 1, "unpack": 0}
            assert rows == label_mesh_rows(topology, faulty, definition)

    def test_input_stack_untouched(self):
        topology = Torus2D(12, 12)
        faulty = np.random.default_rng(3).random((3, 12, 12)) < 0.05
        before = faulty.copy()
        label_batch(topology, faulty)
        assert np.array_equal(faulty, before)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="fault plane shape"):
            label_batch(Mesh2D(4, 4), np.zeros((2, 4, 5), dtype=bool))
