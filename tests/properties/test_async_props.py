"""Property: the labeling protocols are schedule-oblivious.

The paper's synchronous lock-step assumption is a presentation
convenience; because the update rules are monotone and receivers merge
statuses monotonically, *any* asynchronous delivery order reaches the
same fixpoint.  These tests drive the protocols through random delayed
schedules and demand bitwise-identical labels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, enabled_fixpoint, unsafe_fixpoint
from repro.core.distributed import async_enabled, async_unsafe
from repro.mesh import Mesh2D, Torus2D
from tests.strategies import fault_sets

W = H = 8


class TestAsyncEquivalence:
    @given(
        fault_sets(W, H, 10),
        st.sampled_from(list(SafetyDefinition)),
        st.integers(0, 2**31 - 1),
        st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_phase1_schedule_oblivious(self, faults, definition, seed, max_delay):
        m = Mesh2D(W, H)
        expected, _ = unsafe_fixpoint(m, faults.mask, definition)
        got, _ = async_unsafe(
            m, faults, np.random.default_rng(seed), definition, max_delay
        )
        assert np.array_equal(got, expected)

    @given(fault_sets(W, H, 10), st.integers(0, 2**31 - 1), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_phase2_schedule_oblivious(self, faults, seed, max_delay):
        m = Mesh2D(W, H)
        unsafe, _ = unsafe_fixpoint(m, faults.mask)
        expected, _ = enabled_fixpoint(m, faults.mask, unsafe)
        got, _ = async_enabled(
            m, faults, unsafe, np.random.default_rng(seed), max_delay
        )
        assert np.array_equal(got, expected)

    @given(fault_sets(W, H, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_torus_schedule_oblivious(self, faults, seed):
        t = Torus2D(W, H)
        expected, _ = unsafe_fixpoint(t, faults.mask)
        got, _ = async_unsafe(t, faults, np.random.default_rng(seed))
        assert np.array_equal(got, expected)

    @given(fault_sets(W, H, 6))
    @settings(max_examples=10, deadline=None)
    def test_different_schedules_agree_with_each_other(self, faults):
        m = Mesh2D(W, H)
        a, _ = async_unsafe(m, faults, np.random.default_rng(1), max_delay=2)
        b, _ = async_unsafe(m, faults, np.random.default_rng(999), max_delay=7)
        assert np.array_equal(a, b)
