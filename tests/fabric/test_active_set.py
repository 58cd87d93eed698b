"""Property: active-set stepping is invisible — the engine produces the
same snapshots, round counts and per-round message/change statistics as
literal full stepping, for both labeling protocols, both topologies,
chatty or quiet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition
from repro.core.distributed import distributed_enabled, distributed_unsafe
from repro.core.protocols import EnableProgram, SafetyProgram
from repro.errors import ProtocolError
from repro.fabric import SynchronousEngine
from repro.faults import FaultSet
from repro.mesh import Mesh2D, Torus2D
from tests.strategies import fault_sets

W = H = 8


def run_both(topology, faults, definition, chatty):
    out = []
    for active in (False, True):
        unsafe, s1, _ = distributed_unsafe(
            topology, faults, definition, chatty=chatty, active_set=active
        )
        enabled, s2, _ = distributed_enabled(
            topology, faults, unsafe, chatty=chatty, active_set=active
        )
        out.append((unsafe, enabled, s1, s2))
    return out


class TestActiveSetEquivalence:
    @given(
        fault_sets(W, H, 10),
        st.sampled_from([Mesh2D(W, H), Torus2D(W, H)]),
        st.sampled_from(list(SafetyDefinition)),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_labels_and_statistics(
        self, faults, topology, definition, chatty
    ):
        (u_full, e_full, s1_full, s2_full), (u_act, e_act, s1_act, s2_act) = run_both(
            topology, faults, definition, chatty
        )
        assert np.array_equal(u_full, u_act)
        assert np.array_equal(e_full, e_act)
        for full, act in ((s1_full, s1_act), (s2_full, s2_act)):
            assert full.rounds == act.rounds
            assert full.messages_per_round == act.messages_per_round
            assert full.changes_per_round == act.changes_per_round

    @given(fault_sets(W, H, 8), st.sampled_from(list(SafetyDefinition)))
    @settings(max_examples=20, deadline=None)
    def test_debug_full_check_certifies_status_protocols(self, faults, definition):
        # The monotone status protocols must pass the skipped-node no-op
        # cross-check: this is the machine-checked form of the claim that
        # active-set stepping is exact for them.
        engine = SynchronousEngine(
            Mesh2D(W, H),
            frozenset(faults),
            factory=lambda ctx: SafetyProgram(ctx, definition),
            debug_full_check=True,
        )
        engine.run()  # must not raise


class TestActiveSetGuards:
    def test_debug_check_catches_non_quiescent_program(self):
        from repro.fabric.program import NodeProgram

        class TimeBomb(NodeProgram):
            """Node (0, 0) keeps the run alive; every other node stays
            silent for two rounds, then spontaneously changes — exactly
            the behaviour active-set stepping cannot honour, because a
            quiet node with an empty inbox gets skipped."""

            def __init__(self, ctx):
                super().__init__(ctx)
                self.clock = 0

            def start(self):
                return {}

            def on_round(self, inbox):
                self.clock += 1
                if self.ctx.coord == (0, 0):
                    return {}, self.clock <= 3  # driver: changes, sends nothing
                return {}, self.clock == 3  # sleeper: skipped, then fires

            def snapshot(self):
                return self.clock

        engine = SynchronousEngine(
            Mesh2D(2, 1), frozenset(), TimeBomb, debug_full_check=True
        )
        with pytest.raises(ProtocolError, match="active-set invariant"):
            engine.run()

    def test_full_stepping_still_available(self):
        faults = FaultSet.from_coords((W, H), [(1, 1), (1, 2), (2, 1)])
        unsafe, stats, _ = distributed_unsafe(
            Mesh2D(W, H), faults, active_set=False
        )
        assert stats.rounds >= 0 and unsafe[1, 1]

    def test_neighbor_sets_cached_once(self):
        calls = 0

        class Counting(Mesh2D):
            def neighbors(self, c):
                nonlocal calls
                calls += 1
                return super().neighbors(c)

        topo = Counting(4, 4)
        faults = FaultSet.from_coords((4, 4), [(1, 1)])
        distributed_unsafe(topo, faults)
        # NodeContext construction enumerates per-dimension neighbours
        # separately; the engine itself must query each node only once.
        assert calls <= topo.num_nodes
