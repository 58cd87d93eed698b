"""Drivers that run the labeling protocols on the fabric engine.

This is the *faithful* backend: one :class:`~repro.fabric.program.NodeProgram`
per nonfaulty node, lock-step rounds, message-based status exchange.
It produces exactly the same labels and round counts as the vectorized
fixpoints of :mod:`repro.core.safety` / :mod:`repro.core.enabling`
(property-tested), while additionally reporting message statistics.
Use it when fidelity or communication cost matters; use the vectorized
backend for large parameter sweeps.

All four drivers accept a :class:`~repro.faults.schedule.FaultSchedule`
of mid-run crashes and a :class:`~repro.fabric.channel.ChannelModel` of
link degradations.  For phase 1 the protocols are self-stabilizing:
whatever the schedule and any lossy-but-fair channel, the converged
labels equal the from-scratch fixpoint on the *final* fault set
(property tested); the returned masks therefore mark every crashed node
as unsafe, exactly as a from-scratch run on the final faults would.
Phase 2 is monotone in node status but not in the fault set (a faulty
neighbour counts as *disabled*), so deployments re-run it from the
phase-1 labels once faults settle — which is how
:func:`repro.core.pipeline.label_mesh` composes the two phases.
"""

from __future__ import annotations

from typing import Optional, Tuple, Type

import numpy as np

from repro.core.protocols import EnableProgram, SafetyProgram
from repro.core.status import SafetyDefinition
from repro.fabric.async_engine import AsynchronousEngine
from repro.fabric.channel import ChannelModel
from repro.fabric.engine import EngineResult, SynchronousEngine
from repro.fabric.stats import RunStats
from repro.faults.faultset import FaultSet
from repro.faults.schedule import FaultSchedule
from repro.mesh.topology import Topology
from repro.obs.telemetry import Telemetry
from repro.types import BoolGrid

__all__ = [
    "distributed_unsafe",
    "distributed_enabled",
    "async_unsafe",
    "async_enabled",
]


def _final_faults(faults: FaultSet, schedule: Optional[FaultSchedule]) -> FaultSet:
    """The fault set after every scheduled crash has struck."""
    if schedule is None or not schedule:
        return faults
    return schedule.check_shape(faults.shape).final_faults(faults)


def _unsafe_plane(
    engine_cls: Type,
    topology: Topology,
    faults: FaultSet,
    definition: SafetyDefinition,
    schedule: Optional[FaultSchedule],
    chatty: bool = False,
    **engine_kw,
) -> Tuple[BoolGrid, EngineResult]:
    """Run phase 1 on ``engine_cls``; return the unsafe mask and the run.

    Faulty nodes — initial and crashed alike — are unsafe by
    definition, so the mask ORs the final fault set into the labels.
    """
    result = engine_cls(
        topology,
        frozenset(faults),
        factory=lambda ctx: SafetyProgram(ctx, definition, chatty=chatty),
        schedule=schedule,
        **engine_kw,
    ).run()
    unsafe = _final_faults(faults, schedule).mask.copy()
    for coord, is_unsafe in result.snapshots.items():
        if is_unsafe:
            unsafe[coord] = True
    return unsafe, result


def _enabled_plane(
    engine_cls: Type,
    topology: Topology,
    faults: FaultSet,
    unsafe: BoolGrid,
    chatty: bool = False,
    **engine_kw,
) -> Tuple[BoolGrid, EngineResult]:
    """Run phase 2 on ``engine_cls`` from the phase-1 labels; return the
    enabled mask (faulty nodes are never enabled) and the run."""
    if unsafe.shape != topology.shape:
        raise ValueError(
            f"unsafe mask shape {unsafe.shape} != topology shape {topology.shape}"
        )
    result = engine_cls(
        topology,
        frozenset(faults),
        factory=lambda ctx: EnableProgram(
            ctx, unsafe=bool(unsafe[ctx.coord]), chatty=chatty
        ),
        **engine_kw,
    ).run()
    enabled = np.zeros(topology.shape, dtype=bool)
    for coord, is_enabled in result.snapshots.items():
        if is_enabled:
            enabled[coord] = True
    return enabled, result


def distributed_unsafe(
    topology: Topology,
    faults: FaultSet,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    chatty: bool = False,
    record_trace: bool = False,
    active_set: bool = True,
    schedule: Optional[FaultSchedule] = None,
    channel: Optional[ChannelModel] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[BoolGrid, RunStats, object]:
    """Run phase 1 as a distributed protocol.

    ``active_set=False`` forces the engine to step every node every
    round (identical results; see
    :class:`~repro.fabric.engine.SynchronousEngine`).  ``schedule``
    crashes nodes mid-run and ``channel`` degrades the links; the
    returned mask is the fixpoint on the final fault set (crashed nodes
    are unsafe by definition, like initially-faulty ones).

    Returns
    -------
    (unsafe, stats, trace):
        The unsafe mask (faulty nodes included), the engine's
        :class:`~repro.fabric.stats.RunStats`, and the round trace
        (``None`` unless ``record_trace``).
    """
    unsafe, result = _unsafe_plane(
        SynchronousEngine,
        topology,
        faults,
        definition,
        schedule,
        chatty=chatty,
        record_trace=record_trace,
        active_set=active_set,
        channel=channel,
        telemetry=telemetry,
    )
    return unsafe, result.stats, result.trace


def distributed_enabled(
    topology: Topology,
    faults: FaultSet,
    unsafe: BoolGrid,
    chatty: bool = False,
    record_trace: bool = False,
    active_set: bool = True,
    channel: Optional[ChannelModel] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[BoolGrid, RunStats, object]:
    """Run phase 2 as a distributed protocol, seeded by phase-1 labels.

    Each node is initialised only from its *own* phase-1 status, exactly
    as a real machine would carry local state between the two protocols.
    ``faults`` must be the settled (final) fault set: the enable rule is
    not monotone under fault growth, so recovery from mid-run crashes is
    by re-running this phase from the re-converged phase-1 labels (see
    the module docstring) rather than by crashing nodes inside it.  A
    lossy-but-fair ``channel`` is fine: the rule is monotone in the
    statuses themselves.

    Returns
    -------
    (enabled, stats, trace):
        The enabled mask (faulty nodes are never enabled), engine stats,
        and the optional round trace.
    """
    enabled, result = _enabled_plane(
        SynchronousEngine,
        topology,
        faults,
        unsafe,
        chatty=chatty,
        record_trace=record_trace,
        active_set=active_set,
        channel=channel,
        telemetry=telemetry,
    )
    return enabled, result.stats, result.trace


def async_unsafe(
    topology: Topology,
    faults: FaultSet,
    rng: np.random.Generator,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    max_delay: int = 5,
    schedule: Optional[FaultSchedule] = None,
    channel: Optional[ChannelModel] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[BoolGrid, RunStats]:
    """Run phase 1 on the *asynchronous* engine.

    The schedule delays each message by a random amount drawn from
    ``rng``; the monotone protocol converges to the same labels as the
    synchronous execution regardless (property-tested), including under
    mid-run crashes (``schedule``) and lossy-but-fair links
    (``channel``).  Round counts are not comparable to the synchronous
    ones; ``stats.rounds`` is the number of state-changing delivery
    events.
    """
    unsafe, result = _unsafe_plane(
        AsynchronousEngine,
        topology,
        faults,
        definition,
        schedule,
        rng=rng,
        max_delay=max_delay,
        channel=channel,
        telemetry=telemetry,
    )
    return unsafe, result.stats


def async_enabled(
    topology: Topology,
    faults: FaultSet,
    unsafe: BoolGrid,
    rng: np.random.Generator,
    max_delay: int = 5,
    channel: Optional[ChannelModel] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[BoolGrid, RunStats]:
    """Run phase 2 on the asynchronous engine (see :func:`async_unsafe`
    and :func:`distributed_enabled` for why this phase takes a settled
    fault set rather than a crash schedule)."""
    enabled, result = _enabled_plane(
        AsynchronousEngine,
        topology,
        faults,
        unsafe,
        rng=rng,
        max_delay=max_delay,
        channel=channel,
        telemetry=telemetry,
    )
    return enabled, result.stats
