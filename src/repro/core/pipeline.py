"""The two-phase labeling pipeline: faults -> blocks -> polygons.

:func:`label_mesh` is the library's main entry point.  Given a topology
and a fault set it runs

* **phase 1** — safe/unsafe labeling (Definition 2a or 2b) and faulty
  block extraction, then
* **phase 2** — enabled/disabled labeling (Definition 3) and disabled
  region (orthogonal convex polygon) extraction,

on either execution backend:

* ``"vectorized"`` (default) — the bit-packed NumPy Jacobi fixpoints
  (:mod:`repro.core._packed`), the one kernel for full-grid labeling;
* ``"distributed"`` — per-node programs on the synchronous fabric; the
  faithful reproduction of the paper's protocol, also reporting message
  statistics.

Both produce identical labels and round counts (property-tested).  The
returned :class:`LabelingResult` carries the label planes, the blocks,
the regions, round counts and the Figure-5 ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Literal, Optional, Tuple

import numpy as np

from repro.core.blocks import FaultyBlock, extract_blocks
from repro.core.enabling import enabled_fixpoint
from repro.core.frontier import (  # noqa: F401 - tracers patch them by name
    enabled_fixpoint_sparse,
    unsafe_fixpoint_sparse,
)
from repro.core.regions import DisabledRegion, extract_regions
from repro.core.safety import unsafe_fixpoint
from repro.core.status import LabelGrid, SafetyDefinition
from repro.fabric.channel import ChannelModel
from repro.fabric.stats import RunStats
from repro.faults.faultset import FaultSet
from repro.faults.schedule import FaultSchedule
from repro.geometry.components import _scan
from repro.mesh.topology import Topology
from repro.obs.telemetry import Telemetry

__all__ = ["LabelingResult", "assemble_result", "label_mesh"]

Backend = Literal["vectorized", "distributed"]


def _stage(
    tel: Optional[Telemetry],
    phase: str,
    span: str,
    end: Callable[[Any], dict],
    run: Callable[[Optional[Telemetry]], Any],
    **tags: Any,
) -> Any:
    """Run one pipeline stage under its instrumentation.

    Emits the ``phase_transition`` start event, runs ``run`` inside the
    ``span`` profiling span (tagged with ``tags``), then emits the end
    event with the fields ``end(out)`` derives from the stage's output.
    ``run`` receives a phase-labeled child telemetry (``None`` when
    telemetry is off) to thread into kernels and engines.  Every stage
    of :func:`label_mesh` and :func:`assemble_result` goes through here.
    """
    if tel is None:
        return run(None)
    events_on = tel.wants("info")
    if events_on:
        tel.emit("phase_transition", phase=phase, status="start")
    with tel.span(span, **tags):
        out = run(tel.child(phase=phase))
    if events_on:
        tel.emit("phase_transition", phase=phase, status="end", **end(out))
    return out


def _rounds(out: Tuple["np.ndarray", int]) -> dict:
    return {"rounds": out[1]}


def _stats_rounds(out: Tuple["np.ndarray", RunStats, object]) -> dict:
    return {"rounds": out[1].rounds}


def _count(out: list) -> dict:
    return {"count": len(out)}


@dataclass(frozen=True)
class LabelingResult:
    """Everything the two-phase pipeline produced for one fault pattern.

    Attributes
    ----------
    topology, faults, definition:
        The inputs.
    labels:
        The three label planes (faulty/unsafe/enabled).
    blocks:
        Faulty blocks (disjoint rectangles) from phase 1.
    regions:
        Disabled regions (orthogonal convex polygons) from phase 2.
    rounds_phase1, rounds_phase2:
        Rounds of status change each phase needed — the Figure 5 (a)/(b)
        quantities.
    backend:
        Which execution backend produced the labels.
    method:
        Which kernels produced the labels: ``"dense"`` (the packed
        fixpoints) for the vectorized backend, ``"n/a"`` for the
        distributed one, ``"incremental"`` for an incremental snapshot.
    stats_phase1, stats_phase2:
        Fabric message statistics (distributed backend only).
    unwrap_shift:
        Torus only: the cyclic shift ``(dx, dy)`` that was applied to
        every label plane (and to ``faults``) after labeling, chosen so
        that a fault-free column and row sit at the seam.  Labeling
        commutes with cyclic shifts on a torus, so the shifted frame is
        an exact, planar view of the torus labels in which blocks and
        regions never straddle the wrap-around boundary.  Map a cell
        back to machine coordinates with
        ``((x - dx) % width, (y - dy) % height)``.  Always ``(0, 0)``
        on a mesh.
    """

    topology: Topology
    faults: FaultSet
    definition: SafetyDefinition
    labels: LabelGrid
    blocks: List[FaultyBlock]
    regions: List[DisabledRegion]
    rounds_phase1: int
    rounds_phase2: int
    backend: str = "vectorized"
    stats_phase1: Optional[RunStats] = field(default=None, compare=False)
    stats_phase2: Optional[RunStats] = field(default=None, compare=False)
    unwrap_shift: Tuple[int, int] = (0, 0)
    method: str = field(default="dense", compare=False)

    @property
    def num_unsafe_nonfaulty(self) -> int:
        """Nonfaulty nodes imprisoned by phase 1 (over the whole mesh)."""
        return int(self.labels.unsafe_nonfaulty.sum())

    @property
    def num_activated(self) -> int:
        """Nonfaulty nodes freed by phase 2 (over the whole mesh)."""
        return int(self.labels.activated.sum())

    @property
    def enabled_ratio(self) -> float:
        """Fraction of unsafe-but-nonfaulty nodes that phase 2 enabled —
        the paper's Figure 5 (c)/(d) metric, pooled over the whole mesh.
        Defined as 1.0 when phase 1 imprisoned nobody."""
        denom = self.num_unsafe_nonfaulty
        return 1.0 if denom == 0 else self.num_activated / denom

    def per_block_enabled_ratios(self) -> List[float]:
        """The Figure-5 ratio evaluated per *reducible* faulty block.

        For each block containing at least one nonfaulty node, the
        fraction of its nonfaulty members that ended up enabled.  The
        paper averages these per-block percentages.
        """
        faulty = self.labels.faulty
        enabled = self.labels.enabled
        ratios: List[float] = []
        for b in self.blocks:
            if not b.reducible:
                continue
            r = b.rect  # a block's cells are exactly its rectangle
            box = (slice(r.x0, r.x1 + 1), slice(r.y0, r.y1 + 1))
            freed = int((enabled[box] & ~faulty[box]).sum())
            ratios.append(freed / b.num_nonfaulty)
        return ratios

    def summary(self) -> dict:
        """Compact scalar summary used by the experiment harness."""
        return {
            "f": len(self.faults),
            "definition": self.definition.value,
            "backend": self.backend,
            "method": self.method,
            "rounds_phase1": self.rounds_phase1,
            "rounds_phase2": self.rounds_phase2,
            "num_blocks": len(self.blocks),
            "num_regions": len(self.regions),
            "unsafe_nonfaulty": self.num_unsafe_nonfaulty,
            "activated": self.num_activated,
            "enabled_ratio": self.enabled_ratio,
        }


def label_mesh(
    topology: Topology,
    faults: FaultSet,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    backend: Backend = "vectorized",
    chatty: bool = False,
    schedule: Optional[FaultSchedule] = None,
    channel: Optional[ChannelModel] = None,
    telemetry: Optional[Telemetry] = None,
) -> LabelingResult:
    """Run the full two-phase pipeline.

    Parameters
    ----------
    topology:
        Mesh or torus of the fault set's shape.
    faults:
        The failed nodes.
    definition:
        Phase-1 unsafe rule (Definition 2a or 2b; the paper's algorithm
        statement uses 2b).
    backend:
        ``"vectorized"`` or ``"distributed"`` (see module docstring).
    chatty:
        Distributed backend only: re-broadcast status every round, as in
        the paper's literal pseudo-code, instead of only on change.
    schedule:
        Distributed backend only: a
        :class:`~repro.faults.schedule.FaultSchedule` of crashes that
        strike *during* phase 1.  Phase 1 self-stabilizes through them;
        phase 2 then runs on the settled (final) fault set seeded from
        the re-converged phase-1 labels — the standard restart
        composition, since the enable rule is not monotone under fault
        growth.  The result describes the final fault set, so it equals
        a from-scratch run on those faults (property tested).
    channel:
        Distributed backend only: a lossy/duplicating/jittering
        :class:`~repro.fabric.channel.ChannelModel` applied to both
        phases.  Must be fair for convergence guarantees; see
        :mod:`repro.fabric.channel`.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`.  The pipeline
        emits ``phase_transition`` events around each phase, wraps the
        phases in ``phase_unsafe`` / ``phase_enable`` profiling spans
        (tagged with the kernel that ran, ``dense`` or ``fabric``) and
        the extraction steps in ``extract_blocks`` / ``extract_regions``
        spans and events (so ``repro obs summarize`` attributes
        extraction time per run), and threads phase-labeled children
        into the fabric engines.  ``None`` (default) disables all
        instrumentation.

    Returns
    -------
    LabelingResult
    """
    if faults.shape != topology.shape:
        raise ValueError(
            f"fault shape {faults.shape} != topology shape {topology.shape}"
        )
    dynamic = (schedule is not None and bool(schedule)) or (
        channel is not None and not channel.is_reliable
    )
    if dynamic and backend != "distributed":
        raise ValueError(
            "fault schedules and lossy channels require backend='distributed'"
        )
    faulty = faults.mask
    tel = telemetry
    if backend == "vectorized":
        unsafe, rounds1 = _stage(
            tel, "unsafe", "phase_unsafe", _rounds,
            lambda t: unsafe_fixpoint(topology, faulty, definition),
            kernel="dense",
        )
        enabled, rounds2 = _stage(
            tel, "enable", "phase_enable", _rounds,
            lambda t: enabled_fixpoint(topology, faulty, unsafe),
            kernel="dense",
        )
        method_used = "dense"
        stats1 = stats2 = None
    elif backend == "distributed":
        from repro.core.distributed import distributed_enabled, distributed_unsafe

        unsafe, stats1, _ = _stage(
            tel, "unsafe", "phase_unsafe", _stats_rounds,
            lambda t: distributed_unsafe(
                topology, faults, definition, chatty=chatty,
                schedule=schedule, channel=channel, telemetry=t,
            ),
            kernel="fabric",
        )
        if schedule is not None and schedule:
            # Crashes settled during phase 1; phase 2 runs on the final
            # fault set, seeded from the re-converged phase-1 labels.
            faults = schedule.check_shape(faults.shape).final_faults(faults)
            faulty = faults.mask
        enabled, stats2, _ = _stage(
            tel, "enable", "phase_enable", _stats_rounds,
            lambda t: distributed_enabled(
                topology, faults, unsafe, chatty=chatty, channel=channel,
                telemetry=t,
            ),
            kernel="fabric",
        )
        rounds1, rounds2 = stats1.rounds, stats2.rounds
        method_used = "n/a"
    else:
        raise ValueError(f"unknown backend {backend!r}")

    return assemble_result(
        topology=topology,
        faults=faults,
        definition=definition,
        faulty=faulty,
        unsafe=unsafe,
        enabled=enabled,
        rounds_phase1=rounds1,
        rounds_phase2=rounds2,
        backend=backend,
        stats_phase1=stats1,
        stats_phase2=stats2,
        method=method_used,
        telemetry=telemetry,
    )


def assemble_result(
    topology: Topology,
    faults: FaultSet,
    definition: SafetyDefinition,
    faulty: "np.ndarray",
    unsafe: "np.ndarray",
    enabled: "np.ndarray",
    rounds_phase1: int,
    rounds_phase2: int,
    backend: str = "vectorized",
    stats_phase1: Optional[RunStats] = None,
    stats_phase2: Optional[RunStats] = None,
    method: str = "n/a",
    telemetry: Optional[Telemetry] = None,
) -> LabelingResult:
    """Turn converged label planes into a full :class:`LabelingResult`.

    The shared tail of the pipeline: torus unwrapping, label-plane
    packaging, and block/region extraction (with the extraction spans
    and events).  Used by :func:`label_mesh` and by the incremental
    engines (:mod:`repro.core.incremental`, :mod:`repro.service`) whose
    planes converged by other means.  On a torus the planes are rolled
    to the unwrap frame, so callers must pass copies they do not need.
    """
    unwrap_shift = (0, 0)
    if topology.wraps:
        unwrap_shift = _torus_unwrap_shift(unsafe)
        dx, dy = unwrap_shift
        faulty = np.roll(np.roll(faulty, dx, axis=0), dy, axis=1)
        unsafe = np.roll(np.roll(unsafe, dx, axis=0), dy, axis=1)
        enabled = np.roll(np.roll(enabled, dx, axis=0), dy, axis=1)
        faults = FaultSet.from_mask(faulty)

    labels = LabelGrid(faulty=faulty, unsafe=unsafe, enabled=enabled)
    fault_runs = _scan(faulty)  # one fault scan serves both extractions
    blocks = _stage(
        telemetry, "extract_blocks", "extract_blocks", _count,
        lambda t: extract_blocks(unsafe, faulty, fault_runs),
    )
    regions = _stage(
        telemetry, "extract_regions", "extract_regions", _count,
        lambda t: extract_regions(labels.disabled, faulty, fault_runs),
    )
    return LabelingResult(
        topology=topology,
        faults=faults,
        definition=definition,
        labels=labels,
        blocks=blocks,
        regions=regions,
        rounds_phase1=rounds_phase1,
        rounds_phase2=rounds_phase2,
        backend=backend,
        stats_phase1=stats_phase1,
        stats_phase2=stats_phase2,
        unwrap_shift=unwrap_shift,
        method=method,
    )


def _torus_unwrap_shift(unsafe: "np.ndarray") -> Tuple[int, int]:
    """Cyclic shift placing an all-safe column at x=0 and row at y=0.

    With the seam column/row empty of unsafe nodes, grid-frame connected
    components coincide with torus components and no block or region
    straddles the boundary.

    Raises
    ------
    ValueError
        If every column (or row) holds an unsafe node — the fault
        pattern wraps all the way around and has no planar view.  The
        paper's sparse-fault regime (f <= n on an n x n torus) cannot
        trigger this.
    """
    col_free = ~unsafe.any(axis=1)
    row_free = ~unsafe.any(axis=0)
    if not col_free.any() or not row_free.any():
        raise ValueError(
            "cannot unwrap torus labels: unsafe nodes occupy every column or row"
        )
    x0 = int(np.argmax(col_free))
    y0 = int(np.argmax(row_free))
    return (-x0 % unsafe.shape[0], -y0 % unsafe.shape[1])
