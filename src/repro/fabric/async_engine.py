"""Asynchronous execution of the labeling protocols.

The paper assumes synchronous lock-step rounds "to simplify our
discussion" — real machines are not synchronous.  This engine executes
the same per-node programs under an adversarial asynchronous schedule:
messages sit in flight for arbitrary (bounded, randomly drawn) delays
and nodes take steps whenever something arrives, one node at a time.

The labeling protocols tolerate this because their update rules are
**monotone** (safe→unsafe, disabled→enabled only) and depend only on
the *latest heard* neighbour status: any delivery order drives the
system to the same least fixpoint the synchronous engine reaches.
``tests/properties/test_async_props.py`` pins the two engines to
identical final labels across random schedules — the self-stabilization
property that makes the algorithm deployable on real hardware.

Scheduling model
----------------
Every message is assigned an integer delivery time ``send_time + d``
with delay ``d`` drawn uniformly from ``[1, max_delay]``.  At each
virtual time step, all messages due for a node are handed to it in one
:meth:`~repro.fabric.program.NodeProgram.on_round` call (the program
API is delivery-batch based, so it serves both engines unchanged).
Execution ends when no messages are in flight — for quiescently
terminating protocols such as the labeling rules this coincides with
the fixpoint.

Dynamic faults and lossy channels
---------------------------------
As in :class:`~repro.fabric.engine.SynchronousEngine`, a
:class:`~repro.faults.schedule.FaultSchedule` crashes nodes at points
of the virtual clock: a crash at time *t* strikes before any delivery
at *t*; in-flight traffic to the dead node is discarded (its own
earlier sends, already in the network, are still delivered), surviving
neighbours observe the change via
:meth:`~repro.fabric.program.NodeContext.mark_faulty` and take an
immediate wake-up step so rules that now fire on the dead link do fire.
If the network drains while crash events remain, the clock jumps to the
next event.  A lossy :class:`~repro.fabric.channel.ChannelModel` drops,
duplicates or delays copies at the posting boundary; when the queue
drains with unrepaired drops outstanding, every program's
:meth:`~repro.fabric.program.NodeProgram.resend` heartbeat re-announces
current state.  With no schedule and a reliable channel the engine is
bit-for-bit its historical self.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import count
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.fabric.channel import ChannelModel
from repro.fabric.engine import EngineResult, ProgramFactory, _FabricEngine
from repro.faults.schedule import FaultSchedule
from repro.mesh.topology import Topology
from repro.obs.events import snapshot_event
from repro.obs.telemetry import Telemetry
from repro.types import Coord

__all__ = ["AsynchronousEngine"]


class AsynchronousEngine(_FabricEngine):
    """Event-driven executor with randomly delayed message delivery.

    Parameters
    ----------
    topology, faulty, factory:
        As for :class:`~repro.fabric.engine.SynchronousEngine`.
    rng:
        Source of message delays; pass a seeded generator for
        reproducible schedules.
    max_delay:
        Upper bound (inclusive) on per-message delivery delay.  1 makes
        the schedule synchronous-like (but still serialised per node).
    max_events:
        Safety budget on delivery events.
    schedule:
        Optional mid-run crash schedule on the virtual clock.
    channel:
        Optional lossy/duplicating/jittering link model; ``None`` or a
        reliable channel keeps perfect links (and the historical rng
        stream).
    record_trace:
        When True, snapshot every node after initialisation and after
        each processed event, as a
        :class:`~repro.fabric.trace.RoundTrace` whose frames are keyed
        by the delivery-event count — the async analogue of the
        synchronous engine's per-round frames.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; see
        :class:`~repro.fabric.engine.SynchronousEngine`.  ``round_start``
        events and ``engine_round`` spans correspond to *delivery
        events* here (``stats.rounds`` already counts state-changing
        deliveries).  ``None`` disables all instrumentation.
    """

    _LABEL = "async"

    def __init__(
        self,
        topology: Topology,
        faulty: frozenset | set,
        factory: ProgramFactory,
        rng: np.random.Generator,
        max_delay: int = 5,
        max_events: int | None = None,
        schedule: Optional[FaultSchedule] = None,
        channel: Optional[ChannelModel] = None,
        record_trace: bool = False,
        telemetry: Optional[Telemetry] = None,
    ):
        if max_delay < 1:
            raise ProtocolError(f"max_delay must be >= 1, got {max_delay}")
        super().__init__(
            topology, faulty, factory, record_trace, schedule, channel, telemetry
        )
        self._rng = rng
        self._max_delay = int(max_delay)
        # Generous: every node can flip once, each flip fans out <= 4
        # messages, each message may trigger a (non-flipping) step.
        if max_events is None:
            max_events = (40 * topology.num_nodes * self._max_delay + 1000) * (
                len(self._crashes) + 1
            )
            if self._channel is not None and self._channel.drop_budget is not None:
                # Every drop can cost one heartbeat repair cycle, whose
                # resends fan out ~4 messages (plus duplicates) per node.
                max_events += (self._channel.drop_budget + 1) * (
                    8 * topology.num_nodes
                )
        self._budget = max_events

    def run(self) -> EngineResult:
        """Drive the system until no messages remain in flight.

        Returns an :class:`~repro.fabric.engine.EngineResult` whose
        ``stats.rounds`` holds the number of *delivery events that
        changed some node's state* (the async analogue of changing
        rounds; not comparable to synchronous round counts).
        """
        led = self._begin()
        stats, trace, tel, meters = led.stats, led.trace, led.tel, led.meters
        events_on, debug_on, spans_on = led.events_on, led.debug_on, led.spans_on
        channel = self._channel
        crash_events = self._crashes
        deliveries = (
            tel.counter("engine_delivery_events_total") if meters is not None else None
        )
        # Priority queue of (deliver_at, tiebreak, recipient); the
        # payload map per (time, recipient) keeps only the latest
        # message per sender, like a real link that overwrites status.
        queue: list[Tuple[int, int, Coord]] = []
        pending: Dict[Tuple[int, Coord], Dict[Coord, Any]] = {}
        tiebreak = count()

        def post(sender: Coord, outgoing: Mapping[Coord, Any], now: int) -> None:
            neighbors = self._neighbor_sets[sender]
            for dest, payload in outgoing.items():
                if dest not in neighbors:
                    raise ProtocolError(f"node {sender} sent to non-neighbour {dest}")
                if dest in self._faulty:
                    continue
                if channel is None:
                    offsets = (0,)
                else:
                    offsets = channel.copies(sender, dest)
                for offset in offsets:
                    at = (
                        now
                        + int(self._rng.integers(1, self._max_delay + 1))
                        + offset
                    )
                    key = (at, dest)
                    if key not in pending:
                        pending[key] = {}
                        heapq.heappush(queue, (at, next(tiebreak), dest))
                    pending[key][sender] = payload

        for coord, prog in self._programs.items():
            post(coord, prog.start(), now=0)

        events = 0
        changing_events = 0
        messages = 0
        now = 0

        def bump_budget() -> None:
            nonlocal events
            events += 1
            if events > self._budget:
                raise ProtocolError(
                    f"async engine exceeded {self._budget} delivery events"
                )

        def step(coord: Coord, inbox: Mapping[Coord, Any], at: int) -> None:
            nonlocal changing_events
            outgoing, changed = self._programs[coord].on_round(inbox)
            if changed:
                changing_events += 1
                if self._dynamic:
                    stats.epochs[-1].rounds += 1
                if meters is not None:
                    meters.rounds.inc()
                if debug_on:
                    tel.emit("node_flip", node=coord, clock=at)
            post(coord, outgoing, now=at)

        # Initial local wake-up: unlike the synchronous engine, where
        # every node steps every round, an event-driven node only steps
        # on delivery — but a rule can fire from static knowledge alone
        # (ghost links and faulty neighbours count toward the enable
        # threshold without any message ever arriving).  One empty-inbox
        # step per node evaluates those static conditions; everything
        # dynamic afterwards arrives as messages.
        for coord in list(self._programs):
            step(coord, {}, 0)
        if trace is not None:
            trace.emit(snapshot_event(0, self._snapshots()))
        while True:
            # Crash batches strike before any delivery at their time;
            # a drained network fast-forwards to the next batch.
            if crash_events and (
                not queue or crash_events[0][0] <= queue[0][0]
            ):
                t, batch = crash_events.popleft()
                now = max(now, t)
                # In-flight traffic to the dead nodes is skipped on
                # delivery.  Surviving neighbours notice the dead links
                # and take one immediate wake-up step: rules counting
                # faulty links may now fire without any message arriving.
                _, woken = self._crash(led, batch, t)
                for n in sorted(woken):
                    bump_budget()
                    stats.epochs[-1].executed_rounds += 1
                    step(n, {}, t)
                continue
            if not queue:
                if self._unrepaired(led):
                    self._heartbeat(led, now, partial(post, now=now))
                    continue
                break
            bump_budget()
            at, _, dest = heapq.heappop(queue)
            now = at
            inbox = pending.pop((at, dest))
            if dest not in self._programs:
                continue  # crashed while the messages were in flight
            messages += len(inbox)
            if self._dynamic:
                ep = stats.epochs[-1]
                ep.executed_rounds += 1
                ep.messages += len(inbox)
            if meters is not None:
                meters.messages.inc(len(inbox))
            if events_on:
                tel.emit(
                    "round_start", round=events, clock=at, delivered=len(inbox)
                )
            if spans_on:
                with tel.spans.span("engine_round", round=events):
                    step(dest, inbox, at)
            else:
                step(dest, inbox, at)
            if trace is not None:
                trace.emit(snapshot_event(events, self._snapshots()))

        stats.rounds = changing_events
        stats.messages_per_round = [messages]
        stats.changes_per_round = [changing_events]
        if meters is not None:
            meters.executed.inc(stats.executed_rounds)
            meters.messages_hist.observe(messages)
            meters.flips.observe(changing_events)
            deliveries.inc(events)
        return self._finish(led)
