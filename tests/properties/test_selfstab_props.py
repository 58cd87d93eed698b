"""Property: the labeling protocols self-stabilize under dynamic faults
and lossy-but-fair channels.

Phase 1 is monotone in the fault set (a faulty node counts as unsafe),
so whatever crash schedule strikes mid-run and whatever a fair channel
drops, duplicates or delays, the converged labels equal the
from-scratch synchronous fixpoint on the *final* fault set.  These
tests drive both engines — synchronous and asynchronous — through
random schedules and adversarial channels, across meshes and tori and
both safety definitions, and demand bitwise-identical labels.

The reliable/static configuration is additionally held to bit-for-bit
round counts and message statistics against the undecorated engines
(regression against the historical behaviour).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh, unsafe_fixpoint
from repro.core.distributed import async_unsafe, distributed_unsafe
from repro.fabric import ChannelModel
from repro.faults import FaultSchedule, FaultSet, staggered_crashes, uniform_random
from repro.mesh import Mesh2D, Torus2D
from tests.strategies import fault_sets

W = H = 8


@st.composite
def schedules(draw, max_crashes=5, max_time=12):
    """A crash schedule over the W x H grid (may overlap initial faults;
    crashing an already-faulty node is a no-op)."""
    n = draw(st.integers(0, max_crashes))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, W - 1), st.integers(0, H - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    times = draw(
        st.lists(st.integers(1, max_time), min_size=n, max_size=n)
    )
    return FaultSchedule(zip(times, coords))


@st.composite
def channels(draw):
    """Lossy-but-fair channel: any mix of drop/dup/jitter with a finite
    drop budget, or the reliable channel."""
    if draw(st.booleans()):
        return ChannelModel.reliable()
    return ChannelModel(
        drop_prob=draw(st.floats(0.0, 0.9)),
        dup_prob=draw(st.floats(0.0, 0.5)),
        jitter=draw(st.integers(0, 3)),
        max_drops=draw(st.integers(0, 300)),
        rng=np.random.default_rng(draw(st.integers(0, 2**31 - 1))),
    )


def expected_unsafe(topology, faults, schedule, definition):
    final = schedule.final_faults(faults)
    expected, _ = unsafe_fixpoint(topology, final.mask, definition)
    return expected


class TestSyncSelfStabilization:
    @given(
        fault_sets(W, H, 8),
        schedules(),
        channels(),
        st.sampled_from(list(SafetyDefinition)),
    )
    @settings(max_examples=25, deadline=None)
    def test_mesh(self, faults, schedule, channel, definition):
        m = Mesh2D(W, H)
        got, _, _ = distributed_unsafe(
            m, faults, definition, schedule=schedule, channel=channel
        )
        assert np.array_equal(
            got, expected_unsafe(m, faults, schedule, definition)
        )

    @given(
        fault_sets(W, H, 6),
        schedules(max_crashes=4),
        channels(),
        st.sampled_from(list(SafetyDefinition)),
    )
    @settings(max_examples=15, deadline=None)
    def test_torus(self, faults, schedule, channel, definition):
        t = Torus2D(W, H)
        got, _, _ = distributed_unsafe(
            t, faults, definition, schedule=schedule, channel=channel
        )
        assert np.array_equal(
            got, expected_unsafe(t, faults, schedule, definition)
        )

    @given(fault_sets(W, H, 8), schedules(), channels())
    @settings(max_examples=15, deadline=None)
    def test_full_stepping_agrees(self, faults, schedule, channel):
        m = Mesh2D(W, H)
        got, _, _ = distributed_unsafe(
            m, faults, active_set=False, schedule=schedule, channel=channel
        )
        assert np.array_equal(
            got,
            expected_unsafe(m, faults, schedule, SafetyDefinition.DEF_2B),
        )


class TestAsyncSelfStabilization:
    @given(
        fault_sets(W, H, 8),
        schedules(),
        channels(),
        st.sampled_from(list(SafetyDefinition)),
        st.integers(0, 2**31 - 1),
        st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_mesh(self, faults, schedule, channel, definition, seed, max_delay):
        m = Mesh2D(W, H)
        got, _ = async_unsafe(
            m,
            faults,
            np.random.default_rng(seed),
            definition,
            max_delay,
            schedule=schedule,
            channel=channel,
        )
        assert np.array_equal(
            got, expected_unsafe(m, faults, schedule, definition)
        )

    @given(
        fault_sets(W, H, 6),
        schedules(max_crashes=4),
        channels(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_torus(self, faults, schedule, channel, seed):
        t = Torus2D(W, H)
        got, _ = async_unsafe(
            t,
            faults,
            np.random.default_rng(seed),
            schedule=schedule,
            channel=channel,
        )
        assert np.array_equal(
            got, expected_unsafe(t, faults, schedule, SafetyDefinition.DEF_2B)
        )


class TestGeneratorWorkloads:
    """The fault *generators* double as dynamic workloads via
    staggered_crashes: every pattern family must self-stabilize."""

    @pytest.mark.parametrize("gen_seed", range(5))
    @pytest.mark.parametrize("generator", ["uniform", "clustered", "rectangle"])
    def test_staggered_generator_patterns(self, generator, gen_seed):
        from repro.faults import clustered, rectangle_outage

        rng = np.random.default_rng(gen_seed)
        m = Mesh2D(10, 10)
        faults = uniform_random(m.shape, 6, rng)
        if generator == "uniform":
            crashes = uniform_random(m.shape, 5, rng)
        elif generator == "clustered":
            crashes = clustered(m.shape, 5, rng, clusters=2)
        else:
            crashes = rectangle_outage(m.shape, rng, extent=(2, 2))
        schedule = staggered_crashes(crashes, rng, max_time=8)
        channel = ChannelModel(
            drop_prob=0.3,
            dup_prob=0.1,
            jitter=1,
            max_drops=400,
            rng=np.random.default_rng(1000 + gen_seed),
        )
        got, _, _ = distributed_unsafe(
            m, faults, schedule=schedule, channel=channel
        )
        assert np.array_equal(
            got, expected_unsafe(m, faults, schedule, SafetyDefinition.DEF_2B)
        )


class TestPipelineRecovery:
    """label_mesh under a schedule equals a from-scratch run on the
    final fault set — the end-to-end re-convergence contract."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("torus", [False, True])
    def test_dynamic_equals_from_scratch(self, seed, torus):
        topo = (Torus2D if torus else Mesh2D)(9, 9)
        rng = np.random.default_rng(seed)
        faults = uniform_random(topo.shape, 5, rng)
        schedule = staggered_crashes(
            uniform_random(topo.shape, 3, rng), rng, max_time=6
        )
        channel = ChannelModel(
            drop_prob=0.25, max_drops=300, rng=np.random.default_rng(77 + seed)
        )
        dynamic = label_mesh(
            topo,
            faults,
            backend="distributed",
            schedule=schedule,
            channel=channel,
        )
        scratch = label_mesh(
            topo, schedule.final_faults(faults), backend="distributed"
        )
        assert np.array_equal(dynamic.labels.faulty, scratch.labels.faulty)
        assert np.array_equal(dynamic.labels.unsafe, scratch.labels.unsafe)
        assert np.array_equal(dynamic.labels.enabled, scratch.labels.enabled)
        assert dynamic.blocks == scratch.blocks
        assert dynamic.regions == scratch.regions

    def test_dynamic_requires_distributed_backend(self):
        m = Mesh2D(6, 6)
        faults = FaultSet.from_coords(m.shape, [(1, 1)])
        with pytest.raises(ValueError, match="distributed"):
            label_mesh(m, faults, schedule=FaultSchedule([(2, (3, 3))]))
        with pytest.raises(ValueError, match="distributed"):
            label_mesh(
                m,
                faults,
                channel=ChannelModel(
                    drop_prob=0.5, max_drops=10, rng=np.random.default_rng(0)
                ),
            )


class TestReliableRegression:
    """reliable() + empty schedule is bit-for-bit the historical run:
    same snapshots, same round counts, same message statistics."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("torus", [False, True])
    def test_bit_for_bit(self, seed, torus):
        topo = (Torus2D if torus else Mesh2D)(10, 10)
        faults = uniform_random(topo.shape, 12, np.random.default_rng(seed))
        plain = label_mesh(topo, faults, backend="distributed")
        decorated = label_mesh(
            topo,
            faults,
            backend="distributed",
            schedule=FaultSchedule.empty(),
            channel=ChannelModel.reliable(),
        )
        assert np.array_equal(plain.labels.unsafe, decorated.labels.unsafe)
        assert np.array_equal(plain.labels.enabled, decorated.labels.enabled)
        assert plain.rounds_phase1 == decorated.rounds_phase1
        assert plain.rounds_phase2 == decorated.rounds_phase2
        for a, b in (
            (plain.stats_phase1, decorated.stats_phase1),
            (plain.stats_phase2, decorated.stats_phase2),
        ):
            assert a.messages_per_round == b.messages_per_round
            assert a.changes_per_round == b.changes_per_round
            assert b.epochs == []
            assert b.dropped_messages == 0
            assert b.heartbeats == 0
