"""Engine-level tests for dynamic faults, lossy channels, and the
engines' defensive paths (budget exhaustion, active-set cross-check).

The system-level self-stabilization properties live in
``tests/properties/test_selfstab_props.py``; this file pins the engine
mechanics: crash semantics, epoch accounting, heartbeat repair, and
bit-for-bit compatibility of the reliable/static configuration.
"""

from functools import partial
from typing import Any, Mapping, Tuple

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.fabric import (
    AsynchronousEngine,
    ChannelModel,
    NodeContext,
    NodeProgram,
    SynchronousEngine,
)
from repro.faults import FaultSchedule
from repro.mesh import Mesh2D, Torus2D


class EchoMax(NodeProgram):
    """Max-consensus by flooding (same toy protocol as test_engine.py)."""

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


class FaultCounter(NodeProgram):
    """Snapshot = how many of my links are faulty/ghost; changes when a
    neighbour crashes, so crash visibility is directly observable."""

    def start(self):
        return {}

    def on_round(self, inbox):
        return {}, False

    def snapshot(self):
        return len(self.ctx.faulty_neighbors)


class NeverQuiescent(NodeProgram):
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


class SneakyQuietNode(NodeProgram):
    """Violates the active-set contract: node (0, 0) flips forever to
    keep the run alive (sending nothing, so nobody else is activated),
    while every other node — skipped from round 2 on — spontaneously
    changes on its third empty-inbox step."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.steps = 0

    def start(self):
        return {}

    def on_round(self, inbox):
        self.steps += 1
        if self.ctx.coord == (0, 0):
            return {}, True
        return {}, self.steps == 3

    def snapshot(self):
        return self.steps


class TestCrashSemantics:
    def test_crashed_node_loses_program(self):
        sched = FaultSchedule([(2, (1, 1))])
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), EchoMax, schedule=sched)
        res = eng.run()
        assert (1, 1) not in res.snapshots
        assert len(res.snapshots) == 8

    def test_neighbors_observe_crash(self):
        sched = FaultSchedule([(2, (1, 1))])
        eng = SynchronousEngine(
            Mesh2D(3, 3), frozenset(), FaultCounter, schedule=sched
        )
        res = eng.run()
        # (1, 1)'s four neighbours each see one dead link; corners see none.
        assert res.snapshots[(0, 1)] == 1
        assert res.snapshots[(1, 0)] == 1
        assert res.snapshots[(0, 0)] == 0

    def test_crash_of_max_leaves_stale_value(self):
        # (2, 2) floods its maximal id before dying: in-flight messages
        # from a crashed node are still delivered, so the stale (but
        # valid at send time) value survives network-wide.
        sched = FaultSchedule([(2, (2, 2))])
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), EchoMax, schedule=sched)
        res = eng.run()
        assert set(res.snapshots.values()) == {2 * 1000 + 2}

    def test_crash_before_any_round_silences_node(self):
        # Crash at time 1 strikes before round 1 executes — but the
        # node's start() messages are already in flight (the paper's
        # "cease to work" is about future behaviour, not time travel).
        sched = FaultSchedule([(1, (2, 2))])
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), EchoMax, schedule=sched)
        res = eng.run()
        assert (2, 2) not in res.snapshots

    def test_crashing_already_faulty_node_is_noop(self):
        sched = FaultSchedule([(2, (1, 1))])
        eng = SynchronousEngine(Mesh2D(3, 3), {(1, 1)}, EchoMax, schedule=sched)
        res = eng.run()
        assert len(res.snapshots) == 8

    def test_late_crash_after_quiescence_reconverges(self):
        # The network converges, idles until the distant crash event
        # (compressed — no idle rounds recorded), then re-converges.
        sched = FaultSchedule([(50, (0, 0))])
        eng = SynchronousEngine(
            Mesh2D(3, 3), frozenset(), FaultCounter, schedule=sched
        )
        res = eng.run()
        assert res.snapshots[(0, 1)] == 1
        assert res.stats.executed_rounds < 20

    def test_epoch_stats_structure(self):
        sched = FaultSchedule([(2, (1, 1)), (6, (2, 0))])
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), EchoMax, schedule=sched)
        res = eng.run()
        epochs = res.stats.epochs
        assert len(epochs) == 3
        assert epochs[0].crashed == ()
        assert epochs[1].crashed == ((1, 1),)
        assert epochs[1].at_time == 2
        assert epochs[2].crashed == ((2, 0),)
        assert sum(e.executed_rounds for e in epochs) == res.stats.executed_rounds
        assert sum(e.rounds for e in epochs) == res.stats.rounds
        assert res.stats.recovery_rounds == epochs[1].rounds + epochs[2].rounds

    @pytest.mark.parametrize(
        "make_engine",
        [SynchronousEngine, partial(AsynchronousEngine, rng=np.random.default_rng(0))],
        ids=["sync", "async"],
    )
    def test_schedule_coordinates_validated(self, make_engine):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            make_engine(
                Mesh2D(3, 3),
                frozenset(),
                EchoMax,
                schedule=FaultSchedule([(2, (7, 7))]),
            )

    def test_async_crash_semantics(self):
        sched = FaultSchedule([(2, (1, 1))])
        eng = AsynchronousEngine(
            Mesh2D(3, 3),
            frozenset(),
            FaultCounter,
            rng=np.random.default_rng(0),
            schedule=sched,
        )
        res = eng.run()
        assert (1, 1) not in res.snapshots
        assert res.snapshots[(0, 1)] == 1
        assert len(res.stats.epochs) == 2


class TestLossyChannel:
    def test_heartbeat_repairs_dropped_start_messages(self):
        # Drop the first 30 messages outright: several start() floods
        # are lost, yet everyone still converges on the global max.
        ch = ChannelModel(
            drop_prob=1.0, max_drops=30, rng=np.random.default_rng(0)
        )
        eng = SynchronousEngine(Mesh2D(3, 3), frozenset(), EchoMax, channel=ch)
        res = eng.run()
        assert set(res.snapshots.values()) == {2 * 1000 + 2}
        assert res.stats.dropped_messages == 30
        assert res.stats.heartbeats >= 1

    def test_duplicates_and_jitter_are_harmless(self):
        ch = ChannelModel(
            dup_prob=0.5, jitter=3, rng=np.random.default_rng(1)
        )
        eng = SynchronousEngine(Mesh2D(4, 4), frozenset(), EchoMax, channel=ch)
        res = eng.run()
        assert set(res.snapshots.values()) == {3 * 1000 + 3}
        assert res.stats.duplicated_messages > 0

    def test_unfair_channel_raises_protocol_error(self):
        ch = ChannelModel(drop_prob=1.0, rng=np.random.default_rng(2))
        eng = SynchronousEngine(
            Mesh2D(3, 3), frozenset(), EchoMax, max_rounds=25, channel=ch
        )
        with pytest.raises(ProtocolError, match="channel kept dropping"):
            eng.run()

    def test_async_lossy_converges(self):
        ch = ChannelModel(
            drop_prob=0.3,
            dup_prob=0.2,
            jitter=2,
            max_drops=200,
            rng=np.random.default_rng(3),
        )
        eng = AsynchronousEngine(
            Mesh2D(4, 4),
            frozenset(),
            EchoMax,
            rng=np.random.default_rng(4),
            channel=ch,
        )
        res = eng.run()
        assert set(res.snapshots.values()) == {3 * 1000 + 3}

    def test_async_unfair_channel_raises(self):
        ch = ChannelModel(drop_prob=1.0, rng=np.random.default_rng(5))
        eng = AsynchronousEngine(
            Mesh2D(3, 3),
            frozenset(),
            EchoMax,
            rng=np.random.default_rng(6),
            max_events=200,
            channel=ch,
        )
        with pytest.raises(ProtocolError, match="channel kept dropping"):
            eng.run()


class TestBitForBitCompatibility:
    def test_reliable_channel_and_empty_schedule_change_nothing(self):
        plain = SynchronousEngine(Mesh2D(5, 5), {(2, 2)}, EchoMax).run()
        decorated = SynchronousEngine(
            Mesh2D(5, 5),
            {(2, 2)},
            EchoMax,
            schedule=FaultSchedule.empty(),
            channel=ChannelModel.reliable(),
        ).run()
        assert plain.snapshots == decorated.snapshots
        assert plain.stats.rounds == decorated.stats.rounds
        assert plain.stats.messages_per_round == decorated.stats.messages_per_round
        assert plain.stats.changes_per_round == decorated.stats.changes_per_round
        assert decorated.stats.epochs == []

    def test_async_reliable_preserves_rng_stream(self):
        a = AsynchronousEngine(
            Mesh2D(4, 4), frozenset(), EchoMax, rng=np.random.default_rng(9)
        ).run()
        b = AsynchronousEngine(
            Mesh2D(4, 4),
            frozenset(),
            EchoMax,
            rng=np.random.default_rng(9),
            schedule=FaultSchedule.empty(),
            channel=ChannelModel.reliable(),
        ).run()
        assert a.snapshots == b.snapshots
        assert a.stats.rounds == b.stats.rounds
        assert a.stats.total_messages == b.stats.total_messages


class TestDefensivePaths:
    def test_sync_budget_message(self):
        eng = SynchronousEngine(
            Mesh2D(3, 3), frozenset(), NeverQuiescent, max_rounds=10
        )
        with pytest.raises(
            ProtocolError, match=r"did not quiesce within 10 rounds"
        ):
            eng.run()

    def test_async_budget_message(self):
        eng = AsynchronousEngine(
            Torus2D(3, 3),
            frozenset(),
            EchoMax,
            rng=np.random.default_rng(0),
            max_events=1,
        )
        with pytest.raises(
            ProtocolError, match=r"exceeded 1 delivery events"
        ):
            eng.run()

    def test_debug_full_check_accepts_wellbehaved_protocol(self):
        eng = SynchronousEngine(
            Mesh2D(4, 4), frozenset(), EchoMax, debug_full_check=True
        )
        res = eng.run()
        assert set(res.snapshots.values()) == {3 * 1000 + 3}

    def test_debug_full_check_catches_violation(self):
        eng = SynchronousEngine(
            Mesh2D(2, 2),
            frozenset(),
            SneakyQuietNode,
            max_rounds=30,
            debug_full_check=True,
        )
        with pytest.raises(
            ProtocolError, match="active-set invariant violated"
        ):
            eng.run()
