"""Sparse frontier fixpoints: the incremental engine's warm-start wave.

The packed Jacobi kernels in :mod:`repro.core.safety` and
:mod:`repro.core.enabling` re-evaluate the rule at **every** cell every
round.  This module propagates from an *active frontier* instead: the
only cells whose rule is evaluated in a round are the neighbours of the
cells that flipped in the previous round (plus, in round 1, the cells
the initial state could possibly fire), so per round the work is
proportional to the frontier size.

Why this is **exact**, not an approximation: both rules are monotone
local rules — a cell's next status is a monotone function of its
neighbours' current statuses, and statuses only ever rise (safe ->
unsafe in phase 1, disabled -> enabled in phase 2).  Suppose a cell
fires under the state at the start of round ``r`` but not at the start
of round ``r - 1``.  The state changed only at the cells that flipped
in round ``r - 1``, and the rule reads only the four neighbours, so the
cell is adjacent to a flip — i.e. in the frontier.  Inductively, every
round the frontier contains *all* cells the dense step would flip, the
per-round flip sets of the two schedules are identical, and therefore
so are the fixpoint **and the round count** (a property test holds the
two kernels to bit-identical labels and equal round counts).

One-shot labeling does not run here: the packed kernels win or tie on
every full-grid instance measured below 8000² (``docs/algorithms.md``
§5.1.1).  What stays is what no packed kernel does —
:func:`unsafe_fixpoint_sparse` resumes from a partial fixpoint and a
seed set, which is how :class:`~repro.core.incremental
.IncrementalLabeling` absorbs a fault delta in work proportional to
the changed area.  :func:`enabled_fixpoint_sparse` is its phase-2
counterpart, kept for the kernel rows of
``benchmarks/perf_baseline.py``.

The kernels work on flat row-major indices (``i = x * height + y``)
with vectorized gathers, so each round is a few NumPy ops on arrays of
frontier size — no per-cell Python.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.status import SafetyDefinition
from repro.errors import ConvergenceError
from repro.mesh.topology import Topology
from repro.obs.telemetry import Telemetry
from repro.types import BoolGrid

__all__ = ["unsafe_fixpoint_sparse", "enabled_fixpoint_sparse"]


def _neighbor_indices(
    idx: np.ndarray, width: int, height: int, wraps: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat neighbour indices of the cells ``idx``, in (E, W, N, S) order.

    Returns ``(nbrs, valid)``, both of shape ``(4, len(idx))``.  On a
    torus every link exists and wraps; on a mesh, links leaving the grid
    have ``valid`` False and their index clamped to 0 — the caller must
    substitute the ghost label for them.
    """
    x = idx // height
    y = idx - x * height
    n = width * height
    east, west, north, south = idx + height, idx - height, idx + 1, idx - 1
    if wraps:
        nbrs = np.stack(
            [
                np.where(x + 1 < width, east, east - n),
                np.where(x > 0, west, west + n),
                np.where(y + 1 < height, north, north - height),
                np.where(y > 0, south, south + height),
            ]
        )
        valid = np.ones(nbrs.shape, dtype=bool)
    else:
        valid = np.stack([x + 1 < width, x > 0, y + 1 < height, y > 0])
        nbrs = np.where(valid, np.stack([east, west, north, south]), 0)
    return nbrs, valid


def _distinct(idx: np.ndarray) -> np.ndarray:
    """The distinct values of ``idx``, sorted.  A sort and one neighbour
    compare: ``np.unique`` hashes integer input, which measured over ten
    times slower on frontier-sized arrays."""
    idx = np.sort(idx)
    first = np.empty(idx.size, dtype=bool)
    first[:1] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    return idx[first]


def unsafe_fixpoint_sparse(
    topology: Topology,
    faulty: BoolGrid,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    telemetry: Optional[Telemetry] = None,
    initial: Optional[BoolGrid] = None,
    seeds: Optional[np.ndarray] = None,
) -> Tuple[BoolGrid, int]:
    """Phase-1 fixpoint by frontier propagation.

    Same fixpoint and round count as
    :func:`repro.core.safety.unsafe_fixpoint` (see the module docstring
    for the exactness argument), but per-round work scales with the
    frontier instead of the grid.  ``telemetry`` (optional) observes
    each round's frontier size into the ``frontier_active_cells``
    histogram — the direct measure of the wave's work.

    Warm starts: ``initial``, when given, is a valid under-approximation
    of the fixpoint (any state reachable by the monotone rule from a
    subset of ``faulty`` qualifies — e.g. the converged labels of a
    smaller fault set).  The iteration resumes from ``initial | faulty``
    instead of ``faulty``.  ``seeds`` restricts the first frontier to
    the neighbourhoods of the given flat cell indices; it must cover
    every cell whose unsafe status was asserted since ``initial``
    converged (new faults plus any re-marked cells), which is what makes
    the warm start reach the exact full fixpoint while touching only the
    changed area.  ``seeds=None`` seeds from every unsafe cell (always
    correct, linear in the unsafe population).
    """
    if faulty.shape != topology.shape:
        raise ConvergenceError(
            f"fault mask shape {faulty.shape} != topology shape {topology.shape}"
        )
    budget = topology.num_nodes + 2
    if initial is None:
        grid = np.ascontiguousarray(faulty, dtype=bool).copy()
    else:
        if initial.shape != topology.shape:
            raise ConvergenceError(
                f"warm-start shape {initial.shape} != topology shape {topology.shape}"
            )
        grid = np.ascontiguousarray(initial, dtype=bool) | faulty
    meter = None
    if telemetry is not None and telemetry.metrics is not None:
        meter = telemetry.histogram("frontier_active_cells")
    width, height = topology.shape
    wraps = topology.wraps
    unsafe = grid.ravel()

    def still_safe_neighbors(flipped: np.ndarray) -> np.ndarray:
        nbrs, valid = _neighbor_indices(flipped, width, height, wraps)
        cand = _distinct(nbrs[valid])
        return cand[~unsafe[cand]]

    if seeds is None:
        seed_idx = np.flatnonzero(unsafe)
    else:
        seed_idx = np.asarray(seeds, dtype=np.intp)
    frontier = still_safe_neighbors(seed_idx) if seed_idx.size else seed_idx
    rounds = 0
    while frontier.size:
        if meter is not None:
            meter.observe(int(frontier.size))
        nbrs, valid = _neighbor_indices(frontier, width, height, wraps)
        vals = unsafe[nbrs] & valid  # ghost neighbours are safe
        if definition is SafetyDefinition.DEF_2A:
            fire = vals.sum(axis=0, dtype=np.int8) >= 2
        else:
            fire = (vals[0] | vals[1]) & (vals[2] | vals[3])
        flipped = frontier[fire]
        if flipped.size == 0:
            break
        unsafe[flipped] = True
        rounds += 1
        if rounds > budget:
            raise ConvergenceError(
                f"unsafe labeling did not converge within {budget} rounds"
            )
        frontier = still_safe_neighbors(flipped)
    return grid, rounds


def enabled_fixpoint_sparse(
    topology: Topology,
    faulty: BoolGrid,
    unsafe: BoolGrid,
) -> Tuple[BoolGrid, int]:
    """Phase-2 fixpoint by frontier propagation.

    Identical labels and round counts to
    :func:`repro.core.enabling.enabled_fixpoint`.  Only disabled
    nonfaulty cells can ever change, so they seed the first frontier;
    afterwards the frontier is the still-disabled neighbourhood of the
    cells enabled last round.
    """
    if faulty.shape != topology.shape or unsafe.shape != topology.shape:
        raise ConvergenceError("label plane shapes disagree with the topology")
    if np.any(faulty & ~unsafe):
        raise ConvergenceError("phase-1 labels invalid: a faulty node is safe")
    budget = topology.num_nodes + 2
    grid = ~np.ascontiguousarray(unsafe, dtype=bool)
    width, height = topology.shape
    wraps = topology.wraps
    enabled = grid.ravel()
    fault = np.ascontiguousarray(faulty, dtype=bool).ravel()
    frontier = np.flatnonzero(~enabled & ~fault)
    rounds = 0
    while frontier.size:
        nbrs, valid = _neighbor_indices(frontier, width, height, wraps)
        vals = enabled[nbrs] | ~valid  # ghost neighbours are enabled
        fire = vals.sum(axis=0, dtype=np.int8) >= 2
        flipped = frontier[fire]
        if flipped.size == 0:
            break
        enabled[flipped] = True
        rounds += 1
        if rounds > budget:
            raise ConvergenceError(
                f"enable labeling did not converge within {budget} rounds"
            )
        nbrs, valid = _neighbor_indices(flipped, width, height, wraps)
        cand = _distinct(nbrs[valid])
        frontier = cand[~enabled[cand] & ~fault[cand]]
    return grid, rounds
