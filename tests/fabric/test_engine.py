"""Unit tests for the synchronous engine."""

from functools import partial
from typing import Any, Mapping, Tuple

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.fabric import (
    AsynchronousEngine,
    NodeContext,
    NodeProgram,
    SynchronousEngine,
)
from repro.mesh import Mesh2D

#: Both engine constructors, for the checks they share.
ENGINES = pytest.mark.parametrize(
    "make_engine",
    [SynchronousEngine, partial(AsynchronousEngine, rng=np.random.default_rng(0))],
    ids=["sync", "async"],
)


class EchoMax(NodeProgram):
    """Toy protocol: converge on the maximum node id via flooding.

    Classic distributed max-consensus: converges in eccentricity rounds,
    which gives the engine's round accounting something nontrivial.
    """

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.value = ctx.coord[0] * 1000 + ctx.coord[1]

    def start(self) -> Mapping:
        return {n: self.value for n in self.ctx.live_neighbors}

    def on_round(self, inbox: Mapping) -> Tuple[Mapping, bool]:
        best = max(inbox.values(), default=self.value)
        if best > self.value:
            self.value = best
            return {n: self.value for n in self.ctx.live_neighbors}, True
        return {}, False

    def snapshot(self) -> Any:
        return self.value


class Silent(NodeProgram):
    """Never sends, never changes: quiesces immediately."""

    def start(self):
        return {}

    def on_round(self, inbox):
        return {}, False

    def snapshot(self):
        return "idle"


class Misbehaving(NodeProgram):
    """Sends to a non-neighbour: the engine must reject it."""

    def start(self):
        return {(99, 99): "boom"}

    def on_round(self, inbox):
        return {}, False

    def snapshot(self):
        return None


class NeverQuiescent(NodeProgram):
    """Flips state forever: the engine must hit its round budget."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.bit = False

    def start(self):
        return {}

    def on_round(self, inbox):
        self.bit = not self.bit
        return {}, True

    def snapshot(self):
        return self.bit


class TestEngineBasics:
    def test_silent_network_quiesces_in_zero_rounds(self):
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), Silent)
        res = eng.run()
        assert res.stats.rounds == 0
        assert all(v == "idle" for v in res.snapshots.values())

    def test_max_flooding_converges_to_global_max(self):
        eng = SynchronousEngine(Mesh2D(4, 4), frozenset(), EchoMax)
        res = eng.run()
        assert set(res.snapshots.values()) == {3 * 1000 + 3}

    def test_max_flooding_round_count_is_eccentricity(self):
        # The max starts at (4, 4); node (0, 0) learns it after 8 rounds
        # (Manhattan distance), so exactly 8 changing rounds occur.
        eng = SynchronousEngine(Mesh2D(5, 5), frozenset(), EchoMax)
        res = eng.run()
        assert res.stats.rounds == 8

    def test_faulty_nodes_host_no_program(self):
        faulty = {(1, 1)}
        eng = SynchronousEngine(Mesh2D(3, 3), faulty, EchoMax)
        res = eng.run()
        assert (1, 1) not in res.snapshots
        assert len(res.snapshots) == 8

    def test_faulty_wall_blocks_flooding(self):
        # A full column of faults at x=1 splits a 3-wide mesh; the west
        # column can never learn the east side's maximum.
        faulty = {(1, y) for y in range(3)}
        eng = SynchronousEngine(Mesh2D(3, 3), faulty, EchoMax)
        res = eng.run()
        assert res.snapshots[(0, 2)] == 2          # west column's own max
        assert res.snapshots[(2, 2)] == 2 * 1000 + 2

    @ENGINES
    def test_invalid_fault_coordinate_rejected(self, make_engine):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            make_engine(Mesh2D(3, 3), {(5, 5)}, Silent)


class TestEngineContracts:
    def test_non_neighbor_send_rejected(self):
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), Misbehaving)
        with pytest.raises(ProtocolError):
            eng.run()

    def test_round_budget_enforced(self):
        eng = SynchronousEngine(
            Mesh2D(3, 3), frozenset(), NeverQuiescent, max_rounds=10
        )
        with pytest.raises(ProtocolError):
            eng.run()

    def test_messages_to_faulty_nodes_dropped_silently(self):
        # EchoMax sends to all live neighbours only, so craft a program
        # that addresses everyone including the faulty node.
        class Blaster(Silent):
            def start(self):
                topo = Mesh2D(3, 3)
                return {n: 1 for n in topo.neighbors(self.ctx.coord)}

        eng = SynchronousEngine(Mesh2D(3, 3), {(1, 1)}, Blaster)
        res = eng.run()  # must not raise
        assert (1, 1) not in res.snapshots


class TestStatsAndTrace:
    def test_message_accounting(self):
        eng = SynchronousEngine(Mesh2D(2, 2), frozenset(), EchoMax)
        res = eng.run()
        # Round 1 delivers the 8 start() messages (4 nodes x 2 neighbours).
        assert res.stats.messages_per_round[0] == 8
        assert res.stats.total_messages >= 8

    def test_changes_per_round_monotone_to_zero(self):
        eng = SynchronousEngine(Mesh2D(4, 4), frozenset(), EchoMax)
        res = eng.run()
        assert res.stats.changes_per_round[-1] == 0
        assert res.stats.executed_rounds == res.stats.rounds + 1

    def test_trace_records_every_round(self):
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), EchoMax, record_trace=True)
        res = eng.run()
        assert res.trace is not None
        # Frame 0 (initial) + one per executed round.
        assert len(res.trace) == res.stats.executed_rounds + 1
        first_round, first_snap = res.trace[0]
        assert first_round == 0
        assert first_snap[(0, 0)] == 0

    def test_no_trace_by_default(self):
        eng = SynchronousEngine(Mesh2D(2, 2), frozenset(), Silent)
        assert eng.run().trace is None
