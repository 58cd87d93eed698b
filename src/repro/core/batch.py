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
  words)`` frame, the kernel :func:`~repro.core.pipeline.label_mesh`
  runs — and return every plane's round count.
* **Torus.**  Each plane is rolled to its own unwrap frame
  (:func:`~repro.core.pipeline._torus_unwrap_shift`), as
  :func:`~repro.core.pipeline.assemble_result` does for one plane.
* **Extraction.**  The stack is cut into runs on its packed words and
  labeled in one run pass: plane ``t``'s column ``x`` becomes column
  ``t * (width + 2) + x`` (the frame rows of
  :func:`~repro.geometry._bitplanes.pack`), so the empty ghost columns
  between consecutive planes keep every run from touching another
  plane's runs.  Components come out plane by plane, each
  plane's in the order :func:`~repro.core.blocks.extract_blocks` /
  :func:`~repro.core.regions.extract_regions` give.  The fault and
  enabled planes are read at the members of the runs, and every count
  and ratio is a ``bincount`` of those reads.  The rectangle, fault
  coverage and fault-holding checks are the ones those extractors run.

For every plane the results equal those of ``label_mesh`` on that
plane alone (property tested against it).
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.core.blocks import _check_covers, _check_rectangles
from repro.core.enabling import enabled_fixpoints
from repro.core.pipeline import _torus_unwrap_shift
from repro.core.regions import _check_faults_held
from repro.core.safety import unsafe_fixpoints
from repro.core.status import SafetyDefinition
from repro.geometry._bitplanes import expand_runs, frame_runs, pack
from repro.geometry.components import _label_runs, _Runs
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
) -> BatchLabels:
    """Run both phases and the Figure-5 reductions on a fault stack.

    ``faulty`` is a ``(T, width, height)`` bool stack of fault planes of
    ``topology``'s shape; it is not modified.

    Raises
    ------
    ValueError
        On a plane shape other than the topology's, or a torus plane
        whose unsafe nodes occupy every column or row (as ``label_mesh``
        raises).
    """
    if faulty.shape[1:] != topology.shape:
        raise ValueError(
            f"fault plane shape {faulty.shape[1:]} != topology shape {topology.shape}"
        )
    budget = topology.num_nodes + 2
    faults = int(np.count_nonzero(faulty))
    unsafe, rounds1 = unsafe_fixpoints(topology, faulty, definition, budget)
    enabled, rounds2 = enabled_fixpoints(topology, faulty, unsafe, budget)
    if topology.wraps:
        faulty, unsafe, enabled = _unwrap(faulty, unsafe, enabled)

    planes = faulty.shape[0]
    width, height = topology.shape
    stride = width + 2  # column stride of a plane in a stacked scan
    fault_plane = faulty.reshape(-1)
    frame = pack(unsafe)
    runs = _label_runs(_Runs(*frame_runs(frame)), height, 4)
    sizes, boxes = _check_rectangles(runs, topology.shape)
    block_plane = boxes[0] // stride
    # Each block's faults and freed cells, read off the planes at its
    # members: a Figure-5 plane holds a few hundred unsafe cells, far
    # fewer than a word scan of the fault plane costs.
    at = _flat_cells(runs, topology.shape)
    block = np.repeat(runs.comp, runs.lengths())
    faults_at = fault_plane[at]
    _check_covers(np.count_nonzero(faults_at) == faults, "unsafe")
    nonfaulty = sizes - np.bincount(block[faults_at], minlength=runs.count)
    freed = np.bincount(block[enabled.reshape(-1)[at]], minlength=runs.count)
    reducible = nonfaulty > 0
    ratios = freed[reducible] / nonfaulty[reducible]
    per_plane = np.bincount(block_plane[reducible], minlength=planes)
    enabled_ratios = [
        part.tolist() for part in np.split(ratios, np.cumsum(per_plane)[:-1])
    ]

    frame &= ~pack(enabled)  # the disabled cells
    regions = _label_runs(_Runs(*frame_runs(frame)), height, 8)
    faults_at = fault_plane[_flat_cells(regions, topology.shape)]
    _check_covers(np.count_nonzero(faults_at) == faults, "disabled")
    region = np.repeat(regions.comp, regions.lengths())
    _check_faults_held(
        regions, np.bincount(region[faults_at], minlength=regions.count), topology.shape
    )
    region_plane = np.empty(regions.count, dtype=np.int64)
    region_plane[regions.comp] = regions.x // stride

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


def _flat_cells(runs: _Runs, shape: Tuple[int, int]) -> np.ndarray:
    """The flat stack index ``(t * width + x) * height + y`` of every cell
    of ``runs`` cut from a stack of planes of ``shape``, run by run."""
    width, height = shape
    cols, ys = expand_runs(runs.x, runs.y0, runs.y1)
    # Plane t's column x was scanned as column t * (width + 2) + x.
    return (cols - 2 * (cols // (width + 2))) * height + ys
