"""Label a stack of independent fault patterns in one pass.

The paper's Figure-5 study (:mod:`repro.analysis.fig5`) averages many
small, independent labelings (a stack may mix fault counts) and reads
five numbers from each: the two round counts, the block and region
counts, and every reducible block's enabled ratio.  :func:`label_batch`
computes exactly those for a ``(T, width, height)`` stack of fault
planes, packed once and kept packed, with no
:class:`~repro.core.pipeline.LabelingResult`, block or cell set per plane:

* **Kernels.**  Both fixpoints run once over the whole stack in the
  packed Jacobi loop of :mod:`repro.core._packed` (the kernel
  :func:`~repro.core.pipeline.label_mesh` runs), on a ``(T, width + 2,
  words)`` frame, from inputs built with word operations.
* **Torus.**  Each plane is unpacked, rolled to its own unwrap frame
  (:func:`~repro.core.pipeline._torus_unwrap_shift`) and re-packed; a
  plane with no planar view is cleared and reported, not raised on.
* **Extraction.**  The unsafe and disabled frames are cut into runs and
  labeled in one run pass: plane ``t``'s column ``x`` becomes column
  ``t * (width + 2) + x`` (the frame rows of
  :func:`~repro.geometry._bitplanes.pack`), so the empty ghost columns
  between consecutive planes keep every run from touching another
  plane's runs.  Components come out plane by plane, each
  plane's in the order :func:`~repro.core.blocks.extract_blocks` /
  :func:`~repro.core.regions.extract_regions` give.  The fault and
  enabled bits are read off their frames' words at the runs' members,
  and every count and ratio is a ``bincount`` of those reads.  The
  rectangle, coverage and fault-holding checks are those extractors'.

For every plane the results equal those of ``label_mesh`` on that
plane alone (property tested against it).
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.core._packed import RULES, fixpoint, two_of_four
from repro.core.blocks import _check_covers, _check_rectangles
from repro.core.pipeline import _torus_unwrap_shift
from repro.core.regions import _check_faults_held
from repro.core.status import SafetyDefinition
from repro.geometry._bitplanes import WORD, expand_runs, frame_runs, pack, unpack
from repro.geometry.components import _label_runs, _Runs
from repro.mesh.topology import Topology, _valid_row

__all__ = ["BatchLabels", "label_batch"]


class BatchLabels(NamedTuple):
    """What :func:`label_batch` derives for each plane of a stack.

    The arrays have one entry per plane; ``enabled_ratios[t]`` lists
    plane ``t``'s per-reducible-block enabled ratios in block order —
    :meth:`~repro.core.pipeline.LabelingResult.per_block_enabled_ratios`
    of that plane.  ``planar[t]`` is False for a torus plane with no
    planar view (``label_mesh`` raises on it); such a plane reports its
    rounds but no blocks, regions or ratios."""

    rounds_phase1: np.ndarray
    rounds_phase2: np.ndarray
    num_blocks: np.ndarray
    num_regions: np.ndarray
    enabled_ratios: List[List[float]]
    planar: np.ndarray


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
        On a plane shape other than the topology's.
    """
    if faulty.shape[1:] != topology.shape:
        raise ValueError(
            f"fault plane shape {faulty.shape[1:]} != topology shape {topology.shape}"
        )
    planes = faulty.shape[0]
    width, height = topology.shape
    budget = topology.num_nodes + 2
    faults = int(np.count_nonzero(faulty))
    fault_frame = pack(faulty)
    # The cells either phase may change: every valid nonfaulty bit.
    keep = np.zeros_like(fault_frame[0])
    keep[1:-1, 1:] = _valid_row(height)
    keep = keep & ~fault_frame
    rule = RULES[definition]
    unsafe, rounds1 = fixpoint(topology, fault_frame.copy(), keep, rule, False, budget)
    # keep & ~unsafe: every valid safe bit.  On a mesh the unsafe ring is
    # the ghost label False, so the frame goes to extraction as it is.
    enabled, rounds2 = fixpoint(topology, keep & ~unsafe, keep, two_of_four, True, budget)
    planar = np.ones(planes, dtype=bool)
    if topology.wraps:
        fault_frame, unsafe, enabled = _unwrap(faulty, planar, unsafe, enabled)
        faults = int(np.count_nonzero(faulty[planar]))

    stride = width + 2  # column stride of a plane in a stacked scan
    runs = _label_runs(_Runs(*frame_runs(unsafe)), height, 4)
    sizes, boxes = _check_rectangles(runs, topology.shape)
    block_plane = boxes[0] // stride
    # Each block's faults and freed cells, read off the frames at its
    # members: a Figure-5 plane holds a few hundred unsafe cells, far
    # fewer than a word scan of the fault plane costs.
    at = expand_runs(runs.x, runs.y0, runs.y1)
    block = np.repeat(runs.comp, runs.lengths())
    faults_at = _bits(fault_frame, *at)
    _check_covers(np.count_nonzero(faults_at) == faults, "unsafe")
    nonfaulty = sizes - np.bincount(block[faults_at], minlength=runs.count)
    freed = np.bincount(block[_bits(enabled, *at)], minlength=runs.count)
    reducible = nonfaulty > 0
    ratios = freed[reducible] / nonfaulty[reducible]
    per_plane = np.bincount(block_plane[reducible], minlength=planes)
    enabled_ratios = [
        part.tolist() for part in np.split(ratios, np.cumsum(per_plane)[:-1])
    ]

    unsafe &= ~enabled  # the disabled cells
    regions = _label_runs(_Runs(*frame_runs(unsafe)), height, 8)
    faults_at = _bits(fault_frame, *expand_runs(regions.x, regions.y0, regions.y1))
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
        planar=planar,
    )


def _unwrap(faulty: np.ndarray, planar: np.ndarray, *frames: np.ndarray) -> tuple:
    """The frames of the fault stack and of the label ``frames``, every
    plane rolled to the unwrap frame of its unsafe plane (the first of
    ``frames``).  A plane with no unwrap frame is cleared in every stack
    and marked False in ``planar``."""
    height = faulty.shape[-1]
    stacks = [faulty.copy(), *(unpack(frame, height) for frame in frames)]
    for t in range(faulty.shape[0]):
        try:
            shift = _torus_unwrap_shift(stacks[1][t])
        except ValueError:
            planar[t] = False
        for s in stacks:
            s[t] = np.roll(s[t], shift, axis=(0, 1)) if planar[t] else False
    return tuple(pack(s) for s in stacks)


def _bits(frame: np.ndarray, cols: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The bits of ``frame`` at the cells ``(cols, ys)`` of a stacked scan
    (column ``t * (width + 2) + x`` for plane ``t``'s column ``x``): word
    ``(col + 1) * words + 1 + y // 64``, bit ``y % 64``."""
    words = frame.reshape(-1)[(cols + 1) * frame.shape[-1] + 1 + (ys >> 6)]
    return (words >> (ys & 63).astype(WORD) & 1).astype(bool)
