"""The synchronous lock-step execution engine and the fabric run core.

Runs one :class:`~repro.fabric.program.NodeProgram` per nonfaulty node
in strict rounds: all messages emitted in round *r* are delivered at the
start of round *r + 1*; every node then takes exactly one update step.
Faulty nodes "just cease to work" (paper Section 2): they host no
program, send nothing, and silently drop anything addressed to them.

Convergence: the engine stops after the first round in which no node
reports a state change.  The labeling protocols are monotone, so this
is a true fixpoint, and the number of *changing* rounds matches the
iteration count of the paper's ``repeat ... until no status change``
loops (and, by construction, the Jacobi iteration count of the
vectorized fixpoints in :mod:`repro.core` — a property test holds the
two backends to that).

Active-set stepping
-------------------
By default the engine only *steps* nodes that either received a message
this round or changed state last round; everyone else is skipped.  For
any protocol where a quiet node (no change last round) with an empty
inbox is a no-op — true of every monotone status protocol in this
repository, whose update rules are deterministic functions of the
node's own status and its last-heard neighbour statuses — skipping is
**exact**: the skipped node would have reported no change and sent
nothing, so round counts, per-round change counts, message statistics
and final snapshots are all identical to full stepping (property
tested).  The win is asymptotic: once a labeling wave has passed, the
quiescent interior costs nothing, so a round's cost tracks the wave
front instead of the node count.  ``active_set=False`` restores literal
full stepping; ``debug_full_check=True`` steps the skipped nodes too
and raises if any of them was *not* a no-op, which is how the property
suite certifies new protocols for active-set execution.

Dynamic faults and lossy channels
---------------------------------
A :class:`~repro.faults.schedule.FaultSchedule` lets nodes crash
mid-run: a crash at time *t* strikes before round *t* executes — the
node's program is dropped, pending traffic addressed to it is
discarded, and each surviving neighbour's
:class:`~repro.fabric.program.NodeContext` is updated and the
neighbour re-activated (active-set exact: only the crash neighbourhood
can have new rule inputs).  When the network is quiescent but crash
events remain, the engine fast-forwards the clock to the next event
instead of executing idle rounds, so statistics stay dense.

A :class:`~repro.fabric.channel.ChannelModel` degrades the links at the
posting boundary: dropped copies never arrive, duplicates and jittered
copies arrive in later rounds.  Whenever the network drains while drops
are outstanding, the engine fires a *heartbeat* — every program's
:meth:`~repro.fabric.program.NodeProgram.resend` re-announces current
state — which repairs lost updates; over any lossy-but-fair channel the
protocols therefore converge to exactly the from-scratch fixpoint on
the final fault set (property tested).  ``schedule=None`` with a
reliable (or absent) channel is bit-for-bit the historical behaviour.

The run core
------------
This engine and :class:`~repro.fabric.async_engine.AsynchronousEngine`
differ only in their schedulers.  Everything else — input validation,
program construction, crash application, heartbeats, epoch accounting,
channel totals and telemetry — lives once in the private base class
``_FabricEngine`` and its per-run ``_RunLedger``, so each lifecycle
event (``run_start``, ``heartbeat``, ``epoch_end``, ``crash_batch``,
``run_end``) has a single emit site and the two engines report in the
same order.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from contextlib import nullcontext

from repro.errors import ProtocolError
from repro.fabric.channel import ChannelModel
from repro.faults.schedule import FaultSchedule
from repro.fabric.program import NodeContext, NodeProgram
from repro.fabric.stats import EpochStats, RunStats
from repro.fabric.trace import RoundTrace
from repro.mesh.topology import Topology
from repro.obs.events import snapshot_event
from repro.obs.telemetry import Telemetry
from repro.types import Coord

__all__ = ["SynchronousEngine", "EngineResult", "build_neighbor_sets"]

#: Builds the per-node program from its context.
ProgramFactory = Callable[[NodeContext], NodeProgram]

_EMPTY_INBOX: Dict[Coord, Any] = {}

#: Per-destination inboxes keyed by sender.
Boxes = Dict[Coord, Dict[Coord, Any]]

#: Shared no-op context for rounds profiled without a span recorder.
_NULL_SPAN = nullcontext()


class _EngineMeters:
    """The metric series one engine run updates (resolved once per run).

    Series resolution involves dict lookups and label merging; doing it
    per round would put that on the hot path.  Field-for-field, the
    updates mirror :class:`~repro.fabric.stats.RunStats`, which is what
    lets a property test demand bit-for-bit agreement between a metrics
    snapshot and the run's stats.
    """

    __slots__ = (
        "rounds",
        "executed",
        "messages",
        "flips",
        "messages_hist",
        "heartbeats",
        "recovery_rounds",
        "dropped",
        "duplicated",
    )

    def __init__(self, tel: Telemetry):
        self.rounds = tel.counter("engine_rounds_total")
        self.executed = tel.counter("engine_rounds_executed_total")
        self.messages = tel.counter("engine_messages_total")
        self.flips = tel.histogram("engine_flips_per_round")
        self.messages_hist = tel.histogram("engine_messages_per_round")
        self.heartbeats = tel.counter("engine_heartbeats_total")
        self.recovery_rounds = tel.counter("engine_recovery_rounds_total")
        self.dropped = tel.counter("channel_dropped_total")
        self.duplicated = tel.counter("channel_duplicated_total")


def build_neighbor_sets(
    topology: Topology, coords: Iterable[Coord]
) -> Dict[Coord, frozenset]:
    """Frozen neighbour sets for the given nodes, computed once.

    Topology neighbourhoods are immutable for a run (crashes change the
    *fault view*, not the wiring), so both engines precompute these at
    construction instead of rebuilding a set per posted message batch.
    """
    return {c: frozenset(topology.neighbors(c)) for c in coords}


class EngineResult:
    """Outcome of a completed engine run: final snapshots plus statistics."""

    __slots__ = ("snapshots", "stats", "trace")

    def __init__(
        self,
        snapshots: Dict[Coord, Any],
        stats: RunStats,
        trace: RoundTrace | None,
    ):
        self.snapshots = snapshots
        self.stats = stats
        self.trace = trace


class _RunLedger:
    """The mutable bookkeeping of one engine run.

    Holds the :class:`RunStats` being filled, the optional frame trace,
    the run's telemetry handles, and the channel counters that epochs
    and heartbeats are measured against: ``drops_base``/``dups_base``
    at run start, ``epoch_drops``/``epoch_dups`` at the current epoch's
    start, and ``drops_acked``, the drop count the last heartbeat (or
    the run start) has accounted for.
    """

    __slots__ = (
        "stats",
        "trace",
        "tel",
        "events_on",
        "debug_on",
        "spans_on",
        "meters",
        "epoch",
        "drops_base",
        "dups_base",
        "drops_acked",
        "epoch_drops",
        "epoch_dups",
    )

    def __init__(
        self,
        tel: Optional[Telemetry],
        record_trace: bool,
        drops: int,
        dups: int,
    ):
        self.stats = RunStats()
        self.trace = RoundTrace() if record_trace else None
        self.tel = tel
        self.events_on = tel is not None and tel.wants("info")
        self.debug_on = tel is not None and tel.wants("debug")
        self.spans_on = tel is not None and tel.spans is not None
        self.meters = (
            _EngineMeters(tel) if tel is not None and tel.metrics is not None else None
        )
        self.epoch = 0
        self.drops_base = self.drops_acked = self.epoch_drops = drops
        self.dups_base = self.epoch_dups = dups


class _FabricEngine:
    """Construction and run bookkeeping shared by both engines.

    A subclass supplies its scheduler (the ``run`` loop), its event
    budget ``_budget``, and its telemetry label ``_LABEL``; this class
    validates the inputs, builds the programs, and owns every piece of
    accounting that does not depend on the schedule.
    """

    _LABEL = ""
    _budget: int

    def __init__(
        self,
        topology: Topology,
        faulty: frozenset | set,
        factory: ProgramFactory,
        record_trace: bool,
        schedule: Optional[FaultSchedule],
        channel: Optional[ChannelModel],
        telemetry: Optional[Telemetry],
    ):
        self._topology = topology
        self._faulty: Set[Coord] = set(faulty)
        for f in self._faulty:
            topology.check(f)
        self._crashes: deque = deque()
        if schedule is not None:
            for t, batch in schedule.batches():
                for c in batch:
                    topology.check(c)
                self._crashes.append((t, batch))
        self._channel = channel if channel is not None and not channel.is_reliable else None
        # Dynamic runs record per-epoch stats; static reliable runs keep
        # their statistics bit-for-bit as before.
        self._dynamic = bool(self._crashes) or self._channel is not None
        self._record_trace = bool(record_trace)
        self._telemetry = (
            telemetry.child(engine=self._LABEL) if telemetry is not None else None
        )
        # Every context reads the same initial fault set; crashes reach
        # the contexts through NodeContext.mark_faulty, not this set.
        initial = frozenset(self._faulty)
        self._programs: Dict[Coord, NodeProgram] = {
            c: factory(NodeContext(topology, c, initial))
            for c in topology.nodes()
            if c not in self._faulty
        }
        # Neighbour sets are immutable for the run; computing them once
        # here keeps posting from rebuilding a set per message batch.
        self._neighbor_sets = build_neighbor_sets(topology, self._programs)

    def _channel_counts(self) -> Tuple[int, int]:
        """The channel's cumulative (drops, duplicates); zeros if reliable."""
        channel = self._channel
        if channel is None:
            return 0, 0
        return channel.drops, channel.duplicates

    def _snapshots(self) -> Dict[Coord, Any]:
        return {c: p.snapshot() for c, p in self._programs.items()}

    def _begin(self) -> _RunLedger:
        """Open a run: meters, channel binding, ``run_start``, baselines.

        Call before the initial announcements, so drops during them
        count (and are heartbeat-repaired) like any later loss.
        """
        tel = self._telemetry
        led = _RunLedger(tel, self._record_trace, *self._channel_counts())
        if tel is not None and self._channel is not None:
            self._channel.bind_telemetry(tel)
        if led.events_on:
            tel.emit(
                "run_start",
                nodes=len(self._programs),
                faulty=len(self._faulty),
                dynamic=self._dynamic,
            )
        if self._dynamic:
            led.stats.epochs.append(EpochStats())
        return led

    def _unrepaired(self, led: _RunLedger) -> bool:
        """True when the channel dropped a message no heartbeat repaired."""
        return self._channel is not None and self._channel.drops > led.drops_acked

    def _heartbeat(
        self,
        led: _RunLedger,
        clock: int,
        post: Callable[[Coord, Mapping[Coord, Any]], None],
    ) -> None:
        """The network drained with a status update lost: every program
        re-announces its state through ``post``."""
        stats = led.stats
        stats.heartbeats += 1
        if stats.heartbeats > self._budget:
            raise ProtocolError(
                f"channel kept dropping: {stats.heartbeats} "
                "heartbeats without reaching quiescence "
                "(is the channel fair?)"
            )
        led.drops_acked = self._channel.drops
        if led.meters is not None:
            led.meters.heartbeats.inc()
        if led.events_on:
            led.tel.emit("heartbeat", seq=stats.heartbeats, clock=clock)
        for coord, prog in self._programs.items():
            post(coord, prog.resend())

    def _close_epoch(self, led: _RunLedger) -> None:
        """Charge the channel's interference to the open epoch; emit it."""
        ep = led.stats.epochs[-1]
        drops, dups = self._channel_counts()
        ep.dropped = drops - led.epoch_drops
        ep.duplicated = dups - led.epoch_dups
        led.epoch_drops, led.epoch_dups = drops, dups
        if led.events_on:
            led.tel.emit("epoch_end", epoch=led.epoch, **ep.to_dict())
        if led.meters is not None and led.epoch >= 1:
            led.meters.recovery_rounds.inc(ep.rounds)
        led.epoch += 1

    def _crash(
        self, led: _RunLedger, batch: Iterable[Coord], at: int
    ) -> Tuple[List[Coord], Set[Coord]]:
        """Kill the nodes in ``batch`` at clock ``at``; return (applied,
        surviving neighbours whose view changed).

        Crashing an already-dead node is a no-op.  The closing epoch's
        ``epoch_end`` precedes the ``crash_batch`` that opens the next.
        Discarding in-flight traffic *to* the dead nodes is the
        scheduler's job; traffic they sent earlier is already in the
        network and still delivered (stale-but-valid statuses, which
        monotone receivers absorb safely).
        """
        applied: List[Coord] = []
        for c in sorted(batch):
            if c not in self._programs:
                continue  # faulty from the start, or crashed earlier
            del self._programs[c]
            self._faulty.add(c)
            applied.append(c)
        # A crash schedule makes the run dynamic, so an epoch is open.
        self._close_epoch(led)
        led.stats.epochs.append(EpochStats(crashed=tuple(applied), at_time=at))
        if led.events_on:
            led.tel.emit("crash_batch", time=at, nodes=applied)
        woken: Set[Coord] = set()
        for c in applied:
            for n in self._neighbor_sets[c]:
                prog = self._programs.get(n)
                if prog is not None and prog.ctx.mark_faulty(c):
                    woken.add(n)
        return applied, woken

    def _finish(self, led: _RunLedger) -> EngineResult:
        """Close the last epoch, total the channel, emit ``run_end``."""
        stats = led.stats
        if self._dynamic:
            self._close_epoch(led)
        drops, dups = self._channel_counts()
        stats.dropped_messages = drops - led.drops_base
        stats.duplicated_messages = dups - led.dups_base
        if led.meters is not None:
            led.meters.dropped.inc(stats.dropped_messages)
            led.meters.duplicated.inc(stats.duplicated_messages)
        if led.events_on:
            led.tel.emit(
                "run_end",
                rounds=stats.rounds,
                executed_rounds=stats.executed_rounds,
                messages=stats.total_messages,
                heartbeats=stats.heartbeats,
                dropped=stats.dropped_messages,
                duplicated=stats.duplicated_messages,
            )
        return EngineResult(self._snapshots(), stats, led.trace)


class SynchronousEngine(_FabricEngine):
    """Lock-step round executor over a topology with a fault set.

    Parameters
    ----------
    topology:
        The mesh or torus the programs run on.
    faulty:
        Addresses of nodes faulty from the start; these host no program.
    factory:
        Called once per nonfaulty node with its :class:`NodeContext`.
    max_rounds:
        Safety budget on executed rounds.  ``None`` uses the node count
        + 4 per epoch (idle stretches between crash events are
        compressed, so the budget scales with the work actually done).
    record_trace:
        When True, snapshot every node after every round (expensive;
        meant for debugging and the examples' visualisations).
    active_set:
        When True (default), only step nodes with a pending message or a
        state change last round — exact for quiescent-stable protocols;
        see the module docstring.  Round 1 always steps every node (a
        rule may fire on faulty/ghost links alone, before any message
        arrives).
    debug_full_check:
        Cross-check mode: additionally step every skipped node with an
        empty inbox and raise :class:`~repro.errors.ProtocolError` if it
        changed state or emitted a deliverable message — i.e. if
        active-set execution would have diverged from full stepping.
    schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule` of
        mid-run crashes; see the module docstring.  ``None`` or an
        empty schedule means the fault set is static.
    channel:
        Optional :class:`~repro.fabric.channel.ChannelModel` applied to
        every posted message.  ``None`` (or a reliable channel) keeps
        perfect links and consumes no randomness.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`.  When given,
        the engine emits structured events (``run_start``,
        ``round_start``, ``node_flip``, ``heartbeat``, ``epoch_end``,
        ``crash_batch``, ``run_end``), updates metric series that agree
        bit-for-bit with the returned ``RunStats``, and profiles rounds
        as spans.  ``None`` (the default) is a strict no-op: every
        telemetry site is behind a ``None`` check.
    """

    _LABEL = "sync"

    def __init__(
        self,
        topology: Topology,
        faulty: frozenset | set,
        factory: ProgramFactory,
        max_rounds: int | None = None,
        record_trace: bool = False,
        active_set: bool = True,
        debug_full_check: bool = False,
        schedule: Optional["FaultSchedule"] = None,
        channel: Optional[ChannelModel] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(
            topology, faulty, factory, record_trace, schedule, channel, telemetry
        )
        if max_rounds is None:
            max_rounds = (topology.num_nodes + 4) * (len(self._crashes) + 1)
            if self._channel is not None and self._channel.drop_budget is not None:
                # Every drop can cost one heartbeat repair cycle, and a
                # cycle executes an on-time round plus the deferred tail
                # of duplicates/jitter; size the budget accordingly so a
                # fair-but-persistent channel converges within it.
                max_rounds += (self._channel.drop_budget + 1) * (
                    self._channel.max_jitter + 3
                )
        self._budget = int(max_rounds)
        self._active_set = bool(active_set)
        self._debug_full_check = bool(debug_full_check)

    @property
    def topology(self) -> Topology:
        """The topology this engine runs on."""
        return self._topology

    def run(self) -> EngineResult:
        """Execute rounds until quiescence; return snapshots and stats.

        Quiescence means: a round changed no state, no delayed copies or
        crash events remain, and no dropped message is unrepaired.

        Raises
        ------
        ProtocolError
            If a program addresses a non-neighbour or a faulty/ghost
            node is given a program, or the round budget is exhausted
            (which, for the monotone labeling protocols, indicates a
            bug rather than slow convergence), or ``debug_full_check``
            catches a skipped node that was not a no-op, or an unfair
            channel keeps dropping heartbeats forever.
        """
        led = self._begin()
        stats, trace, tel, meters = led.stats, led.trace, led.tel, led.meters
        events_on, debug_on, spans_on = led.events_on, led.debug_on, led.spans_on
        events = self._crashes

        # Round 1's inboxes come from start().  Inbox dicts are created
        # on demand, so a quiescent network carries no per-node state.
        pending: Boxes = {}
        deferred: Dict[int, Boxes] = {}  # delivery clock -> boxes (lossy only)
        for coord, prog in self._programs.items():
            self._post(coord, prog.start(), pending, deferred, clock=0)

        if trace is not None:
            trace.emit(snapshot_event(0, self._snapshots()))

        # Round 1 steps everyone: a rule can fire on the initial state
        # alone (e.g. a node surrounded by faulty links), with no inbox.
        active: Set[Coord] = set(self._programs)
        clock = 0      # virtual round number (crash times live on this axis)
        executed = 0   # rounds actually stepped (stats index, budget)
        while True:
            # -- pick the clock tick of the next executed round ------------
            if pending or active:
                tick = clock + 1
            else:
                candidates = []
                if deferred:
                    candidates.append(min(deferred))
                if events:
                    # idle until the next crash strikes (compressed)
                    candidates.append(max(events[0][0], clock + 1))
                if candidates:
                    tick = min(candidates)
                elif self._unrepaired(led):
                    post = partial(
                        self._post, boxes=pending, deferred=deferred, clock=clock
                    )
                    self._heartbeat(led, clock, post)
                    continue
                else:
                    break  # truly quiescent

            if executed >= self._budget:
                raise ProtocolError(
                    f"engine did not quiesce within {self._budget} rounds"
                )

            # -- crashes scheduled at or before this tick strike first -----
            if events and events[0][0] <= tick:
                batch: List[Coord] = []
                while events and events[0][0] <= tick:
                    batch.extend(events.popleft()[1])
                applied, woken = self._crash(led, batch, tick)
                for c in applied:
                    pending.pop(c, None)
                    for boxes in deferred.values():
                        boxes.pop(c, None)
                active -= set(applied)
                active |= woken

            # -- delayed copies due now join the round's inboxes -----------
            if deferred:
                for t in sorted(k for k in deferred if k <= tick):
                    for dest, box in deferred.pop(t).items():
                        if dest in self._faulty:
                            continue
                        target = pending.setdefault(dest, {})
                        for sender, payload in box.items():
                            # an on-time copy beats a late duplicate
                            target.setdefault(sender, payload)

            # -- execute one round at clock = tick -------------------------
            delivered = sum(len(v) for v in pending.values())
            if self._active_set:
                step_coords = sorted(active | pending.keys())
            else:
                step_coords = list(self._programs)
            if events_on:
                tel.emit(
                    "round_start",
                    round=executed + 1,
                    clock=tick,
                    delivered=delivered,
                    stepped=len(step_coords),
                )
            nxt: Boxes = {}
            changes = 0
            changed_now: Set[Coord] = set()
            round_span = (
                tel.spans.span("engine_round", round=executed + 1)
                if spans_on
                else _NULL_SPAN
            )
            with round_span:
                for coord in step_coords:
                    inbox = pending.get(coord, _EMPTY_INBOX)
                    outgoing, changed = self._programs[coord].on_round(inbox)
                    if changed:
                        changes += 1
                        changed_now.add(coord)
                        if debug_on:
                            tel.emit("node_flip", node=coord, clock=tick)
                    self._post(coord, outgoing, nxt, deferred, clock=tick)
                if self._active_set and self._debug_full_check:
                    self._check_skipped(step_coords)
            pending = nxt
            active = changed_now
            clock = tick
            executed += 1
            stats.messages_per_round.append(delivered)
            stats.changes_per_round.append(changes)
            if changes:
                stats.rounds += 1
            if meters is not None:
                meters.executed.inc()
                meters.messages.inc(delivered)
                meters.messages_hist.observe(delivered)
                meters.flips.observe(changes)
                if changes:
                    meters.rounds.inc()
            if self._dynamic:
                ep = stats.epochs[-1]
                ep.executed_rounds += 1
                ep.messages += delivered
                if changes:
                    ep.rounds += 1
            if trace is not None:
                trace.emit(snapshot_event(executed, self._snapshots()))
            if (
                changes == 0
                and not deferred
                and not events
                and not self._unrepaired(led)
            ):
                break

        return self._finish(led)

    def _check_skipped(self, stepped) -> None:
        """Assert every node skipped this round was a genuine no-op."""
        stepped_set = set(stepped)
        for coord, prog in self._programs.items():
            if coord in stepped_set:
                continue
            outgoing, changed = prog.on_round(_EMPTY_INBOX)
            deliverable = outgoing and any(
                d not in self._faulty for d in outgoing
            )
            if changed or deliverable:
                raise ProtocolError(
                    f"active-set invariant violated: skipped node {coord} "
                    f"changed={bool(changed)}, sent={dict(outgoing)!r} on an "
                    "empty inbox; run this protocol with active_set=False"
                )

    def _post(
        self,
        sender: Coord,
        outgoing: Mapping[Coord, Any],
        boxes: Boxes,
        deferred: Dict[int, Boxes],
        clock: int,
    ) -> None:
        """Validate one node's outgoing messages and enqueue the copies
        the channel lets through (every copy, exactly on time, for
        reliable links)."""
        if not outgoing:
            return
        neighbors = self._neighbor_sets[sender]
        channel = self._channel
        for dest, payload in outgoing.items():
            if dest not in neighbors:
                raise ProtocolError(
                    f"node {sender} sent to non-neighbour {dest}"
                )
            if dest in self._faulty:
                continue  # faulty nodes silently drop traffic
            if channel is None:
                box = boxes.get(dest)
                if box is None:
                    box = boxes[dest] = {}
                box[sender] = payload
            else:
                for offset in channel.copies(sender, dest):
                    if offset == 0:
                        boxes.setdefault(dest, {})[sender] = payload
                    else:
                        deferred.setdefault(clock + 1 + offset, {}).setdefault(
                            dest, {}
                        )[sender] = payload
