"""Label a stack of independent fault patterns in one pass.

The paper's Figure-5 study (:mod:`repro.analysis.fig5`) averages many
small, independent labelings and reads five numbers from each: the two
round counts, the block and region counts, and every reducible block's
enabled ratio.  :func:`label_batch` computes exactly those for a
``(T, width, height)`` stack of fault planes, without building a
:class:`~repro.core.pipeline.LabelingResult`, a block or a cell set per
plane:

* **Kernels.**  Both fixpoints run once over the whole stack — the
  packed Jacobi loop of :mod:`repro.core._packed` on a ``(T, width + 2,
  words)`` frame, or the frontier loop of :mod:`repro.core.frontier` on
  flat indices over ``T`` planes — and return every plane's round
  count.  ``method`` chooses between them as
  :func:`~repro.core.pipeline.label_mesh` does, with
  :func:`~repro.core.pipeline.choose_kernel` applied to the stack.
* **Torus.**  Each plane is rolled to its own unwrap frame
  (:func:`~repro.core.pipeline._torus_unwrap_shift`), as
  :func:`~repro.core.pipeline.assemble_result` does for one plane.
* **Extraction.**  The stack's member scan is labeled in one run pass:
  plane ``t``'s column ``x`` becomes column ``t * (width + 1) + x``, so
  an empty column separates consecutive planes and no run ever touches
  another plane's runs.  Components come out plane by plane, each
  plane's in the order :func:`~repro.core.blocks.extract_blocks` /
  :func:`~repro.core.regions.extract_regions` give, and every count and
  ratio is a ``bincount`` over the run tables.  The rectangle, fault
  coverage and fault-holding checks are the ones those extractors run.

For every plane the results equal those of ``label_mesh`` on that
plane alone (property tested against it).
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.core.blocks import _check_covers, _check_rectangles
from repro.core.enabling import enabled_fixpoints
from repro.core.frontier import enabled_fixpoints_sparse, unsafe_fixpoints_sparse
from repro.core.pipeline import _pick_kernel, _torus_unwrap_shift
from repro.core.regions import _check_faults_held
from repro.core.safety import unsafe_fixpoints
from repro.core.status import SafetyDefinition
from repro.geometry.components import _fault_runs, _label_runs, _Runs
from repro.mesh.topology import Topology

__all__ = ["BatchLabels", "label_batch"]


class BatchLabels(NamedTuple):
    """What :func:`label_batch` derives for each plane of a stack.

    The arrays have one entry per plane; ``enabled_ratios[t]`` lists
    plane ``t``'s per-reducible-block enabled ratios in block order —
    :meth:`~repro.core.pipeline.LabelingResult.per_block_enabled_ratios`
    of that plane."""

    rounds_phase1: np.ndarray
    rounds_phase2: np.ndarray
    num_blocks: np.ndarray
    num_regions: np.ndarray
    enabled_ratios: List[List[float]]


def label_batch(
    topology: Topology,
    faulty: np.ndarray,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    method: str = "auto",
) -> BatchLabels:
    """Run both phases and the Figure-5 reductions on a fault stack.

    ``faulty`` is a ``(T, width, height)`` bool stack of fault planes of
    ``topology``'s shape; it is not modified.  ``method`` is
    ``"dense"``, ``"frontier"`` or ``"auto"``, as for
    :func:`~repro.core.pipeline.label_mesh`.

    Raises
    ------
    ValueError
        On a plane shape other than the topology's, an unknown
        ``method``, or a torus plane whose unsafe nodes occupy every
        column or row (as ``label_mesh`` raises).
    """
    if faulty.shape[1:] != topology.shape:
        raise ValueError(
            f"fault plane shape {faulty.shape[1:]} != topology shape {topology.shape}"
        )
    if method not in ("dense", "frontier", "auto"):
        raise ValueError(f"unknown method {method!r}")
    budget = topology.num_nodes + 2
    cells, faults = faulty.size, int(np.count_nonzero(faulty))
    if _pick_kernel(method, faults, cells) == "frontier":
        unsafe, rounds1 = unsafe_fixpoints_sparse(topology, faulty, definition, budget)
    else:
        unsafe, rounds1 = unsafe_fixpoints(topology, faulty, definition, budget)
    # The unsafe nonfaulty cells: every fault is unsafe (checked below).
    active = int(np.count_nonzero(unsafe)) - faults
    if _pick_kernel(method, active, cells) == "frontier":
        enabled, rounds2 = enabled_fixpoints_sparse(topology, faulty, unsafe, budget)
    else:
        enabled, rounds2 = enabled_fixpoints(topology, faulty, unsafe, budget)
    if topology.wraps:
        faulty, unsafe, enabled = _unwrap(faulty, unsafe, enabled)

    # Every derived mask is a subset of the unsafe scan: the faults (once
    # checked), the activated cells and the disabled cells.
    planes = faulty.shape[0]
    width, height = topology.shape
    gap = width + 1  # column stride of a plane: its width plus one empty column
    fault_idx = np.flatnonzero(faulty)
    _check_covers(unsafe.reshape(-1)[fault_idx], "unsafe")
    unsafe_idx = np.flatnonzero(unsafe)
    on = enabled.reshape(-1)
    _check_covers(~on[fault_idx], "disabled")
    fault_scan = _stacked_scan(fault_idx, faulty.shape)
    enabled_at = on[unsafe_idx]

    runs, xs, ys = _stacked_runs(unsafe_idx, faulty.shape, 4)
    sizes, boxes = _check_rectangles(runs, xs, ys, topology.shape)
    block_plane = boxes[0] // gap
    faults_in = _comp_counts(runs, fault_scan, height)
    freed_scan = _stacked_scan(unsafe_idx[enabled_at], faulty.shape)
    freed = _comp_counts(runs, freed_scan, height)
    nonfaulty = sizes - faults_in
    reducible = nonfaulty > 0
    ratios = freed[reducible] / nonfaulty[reducible]
    per_plane = np.bincount(block_plane[reducible], minlength=planes)
    enabled_ratios = [
        part.tolist() for part in np.split(ratios, np.cumsum(per_plane)[:-1])
    ]

    regions, xs, ys = _stacked_runs(unsafe_idx[~enabled_at], faulty.shape, 8)
    _check_faults_held(
        regions, _fault_runs(regions, *fault_scan, height), xs, ys, topology.shape
    )
    region_plane = np.empty(regions.count, dtype=np.int64)
    region_plane[regions.comp] = regions.x // gap

    return BatchLabels(
        rounds_phase1=rounds1,
        rounds_phase2=rounds2,
        num_blocks=np.bincount(block_plane, minlength=planes),
        num_regions=np.bincount(region_plane, minlength=planes),
        enabled_ratios=enabled_ratios,
    )


def _unwrap(*stacks: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Copies of the label stacks with every plane rolled to the unwrap
    frame of its unsafe plane (the second stack)."""
    out = tuple(s.copy() for s in stacks)
    for t in range(stacks[0].shape[0]):
        dx, dy = _torus_unwrap_shift(stacks[1][t])
        for s in out:
            s[t] = np.roll(s[t], (dx, dy), axis=(0, 1))
    return out


def _stacked_scan(
    flat: np.ndarray, shape: Tuple[int, int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The stacked scan of the flat indices ``flat`` into a stack of
    ``shape``: every member's column ``t * (width + 1) + x`` and its
    ``y``."""
    _, width, height = shape
    rows = flat // height  # t * width + x
    return rows + rows // width, flat - rows * height


def _stacked_runs(
    flat: np.ndarray, shape: Tuple[int, int, int], connectivity: int
) -> Tuple[_Runs, np.ndarray, np.ndarray]:
    """The labeled runs of the stacked scan of ``flat``, with the
    scan's plane-local ``xs`` and its ``ys``."""
    planes, width, height = shape
    cols, ys = _stacked_scan(flat, shape)
    runs = _label_runs(cols, ys, (planes * (width + 1), height), connectivity)
    return runs, cols % (width + 1), ys


def _comp_counts(
    runs: _Runs, scan: Tuple[np.ndarray, np.ndarray], height: int
) -> np.ndarray:
    """How many cells of ``scan`` (all members of ``runs``) each
    component holds."""
    return np.bincount(_fault_runs(runs, *scan, height).comp, minlength=runs.count)
