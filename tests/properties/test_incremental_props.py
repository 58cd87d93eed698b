"""Property: the incremental engine IS from-scratch labeling — after ANY
sequence of inject/repair deltas, the maintained planes are bit-for-bit
the fixpoints of the accumulated fault set, on both topologies and both
safety definitions, for single-cell deltas (the fast paths), batches
(the vectorized wave), clustered faults (block merges/splits), and
repeated shapes (cache-hit paths)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockEnableCache,
    IncrementalLabeling,
    SafetyDefinition,
    enabled_fixpoint,
    label_mesh,
    unsafe_fixpoint,
)
from repro.errors import FaultModelError
from repro.faults.generators import clustered, uniform_random
from repro.mesh import Mesh2D, Torus2D

W = H = 11

definitions = st.sampled_from(list(SafetyDefinition))
topologies = st.sampled_from([Mesh2D(W, H), Torus2D(W, H)])
coords = st.tuples(st.integers(0, W - 1), st.integers(0, H - 1))


@st.composite
def delta_sequences(draw, max_steps=12, max_batch=4):
    """A sequence of (inject, repair) deltas over the W x H grid.

    Repairs are drawn from anywhere — repairing a non-faulty cell must
    be a harmless no-op, so the strategy does not try to be clever about
    which cells are currently faulty.
    """
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        inject = draw(st.lists(coords, max_size=max_batch, unique=True))
        repair = draw(
            st.lists(
                coords.filter(lambda c: c not in inject),
                max_size=max_batch,
                unique=True,
            )
        )
        steps.append((inject, [c for c in repair if c not in inject]))
    return steps


def assert_matches_scratch(engine):
    """Bit-for-bit equality of both planes with the from-scratch
    fixpoints of the engine's accumulated fault set (machine frame, so
    it covers tori exactly)."""
    faulty = engine.labels.faulty
    unsafe, _ = unsafe_fixpoint(engine.topology, faulty, engine.definition)
    enabled, _ = enabled_fixpoint(engine.topology, faulty, unsafe)
    assert np.array_equal(engine.labels.unsafe, unsafe)
    assert np.array_equal(engine.labels.enabled, enabled)
    assert engine.verify_against_scratch()


class TestDeltaSequences:
    @given(delta_sequences(), topologies, definitions)
    @settings(max_examples=40, deadline=None)
    def test_any_sequence_matches_scratch(self, steps, topology, definition):
        engine = IncrementalLabeling(topology, definition)
        for inject, repair in steps:
            engine.apply(inject=inject, repair=repair)
        assert_matches_scratch(engine)

    @given(delta_sequences(max_steps=6), topologies, definitions)
    @settings(max_examples=20, deadline=None)
    def test_every_intermediate_state_matches(self, steps, topology, definition):
        engine = IncrementalLabeling(topology, definition)
        for inject, repair in steps:
            engine.apply(inject=inject, repair=repair)
            assert_matches_scratch(engine)


class TestSingleCellFastPaths:
    @pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_inject_repair_walk(self, topo_cls, definition):
        # Single-cell deltas are the fast-path workload; walk a long
        # random stream of them and pin every state to scratch.
        topo = topo_cls(12, 12)
        engine = IncrementalLabeling(topo, definition)
        rng = np.random.default_rng(5)
        live = []
        for step in range(120):
            if live and rng.random() < 0.4:
                c = live.pop(rng.integers(len(live)))
                engine.repair([c])
            else:
                c = (int(rng.integers(12)), int(rng.integers(12)))
                if not engine.is_faulty(c):
                    live.append(c)
                engine.inject([c])
            if step % 10 == 9:
                assert_matches_scratch(engine)
        assert_matches_scratch(engine)

    def test_fast_path_reports_are_exact(self):
        engine = IncrementalLabeling(Mesh2D(16, 16))
        d = engine.inject([(8, 8)])
        assert d.injected == ((8, 8),)
        assert d.rounds_phase1 == 0 and d.rounds_phase2 == 0
        assert d.blocks_changed == 1
        d = engine.repair([(8, 8)])
        assert d.repaired == ((8, 8),)
        assert d.newly_safe == 1 and d.newly_activated == 1
        assert engine.num_faults == 0 and engine.num_blocks == 0
        assert_matches_scratch(engine)


class TestBatchAndGenerators:
    @pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    @pytest.mark.parametrize("generator", ["uniform", "clustered"])
    def test_large_batches_use_the_vectorized_wave(
        self, topo_cls, definition, generator
    ):
        # >= 64 seeds routes through the warm-started sparse kernel.
        topo = topo_cls(60, 60)
        rng = np.random.default_rng(17)
        if generator == "uniform":
            first = uniform_random(topo.shape, 80, rng)
            second = uniform_random(topo.shape, 90, rng)
        else:
            first = clustered(topo.shape, 80, rng, clusters=3, spread=2.0)
            second = clustered(topo.shape, 90, rng, clusters=4, spread=2.5)
        engine = IncrementalLabeling(topo, definition)
        engine.inject(list(first))
        assert_matches_scratch(engine)
        engine.inject(list(second))
        assert_matches_scratch(engine)
        engine.repair(list(first))
        assert_matches_scratch(engine)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_torus_wraps(self, seed):
        # An 8x8 torus at high density grows components that wrap a full
        # dimension — the irregular-block resync path.
        topo = Torus2D(8, 8)
        engine = IncrementalLabeling(topo)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            c = (int(rng.integers(8)), int(rng.integers(8)))
            if rng.random() < 0.35 and engine.is_faulty(c):
                engine.repair([c])
            else:
                engine.inject([c])
        assert_matches_scratch(engine)


class TestCachePaths:
    def test_repeated_shapes_hit_the_cache(self):
        cache = BlockEnableCache()
        engine = IncrementalLabeling(Mesh2D(40, 40), cache=cache)
        # The same 2x2 shape at many positions: one miss, then hits.
        for i in range(6):
            x = 3 + 6 * (i % 5)
            y = 3 + 6 * (i // 5)
            engine.inject([(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)])
        assert cache.misses >= 1
        assert cache.hits > cache.misses
        assert_matches_scratch(engine)

    def test_cache_hits_are_still_exact(self):
        # Solve the same shapes with and without a shared cache; labels
        # must be identical either way.
        shapes = [[(4, 4), (5, 4)], [(14, 4), (15, 4)], [(24, 4), (25, 4)]]
        cached = IncrementalLabeling(Mesh2D(32, 32), cache=BlockEnableCache())
        fresh = IncrementalLabeling(Mesh2D(32, 32), cache=BlockEnableCache(capacity=1))
        for shape in shapes:
            cached.inject(shape)
            fresh.inject(shape)
        assert np.array_equal(cached.labels.enabled, fresh.labels.enabled)
        assert_matches_scratch(cached)
        assert_matches_scratch(fresh)

    def test_shared_cache_across_engines(self):
        cache = BlockEnableCache()
        first = IncrementalLabeling(Mesh2D(20, 20), cache=cache)
        first.inject([(5, 5), (6, 5), (5, 6), (6, 6)])
        misses = cache.misses
        second = IncrementalLabeling(Mesh2D(20, 20), cache=cache)
        second.inject([(10, 10), (11, 10), (10, 11), (11, 11)])
        assert cache.misses == misses  # same shape, served from cache
        assert_matches_scratch(second)


class TestContracts:
    def test_inject_and_repair_overlap_rejected(self):
        engine = IncrementalLabeling(Mesh2D(8, 8))
        with pytest.raises(FaultModelError):
            engine.apply(inject=[(2, 2)], repair=[(2, 2)])

    def test_noop_deltas_cost_nothing(self):
        engine = IncrementalLabeling(Mesh2D(8, 8))
        v0 = engine.version
        d = engine.apply()
        assert d.rounds_phase1 == 0 and d.rounds_phase2 == 0
        assert engine.version == v0
        engine.inject([(3, 3)])
        d = engine.inject([(3, 3)])  # already faulty
        assert d.injected == () and d.newly_unsafe == 0
        d = engine.repair([(7, 7)])  # not faulty
        assert d.repaired == () and d.newly_safe == 0

    def test_snapshot_equals_label_mesh(self):
        topo = Mesh2D(24, 24)
        faults = clustered(
            topo.shape, 30, np.random.default_rng(9), clusters=3, spread=2.0
        )
        engine = IncrementalLabeling(topo)
        engine.inject(list(faults))
        snap = engine.snapshot()
        scratch = label_mesh(topo, faults)
        assert np.array_equal(snap.labels.unsafe, scratch.labels.unsafe)
        assert np.array_equal(snap.labels.enabled, scratch.labels.enabled)
        assert snap.blocks == scratch.blocks
        assert snap.regions == scratch.regions
