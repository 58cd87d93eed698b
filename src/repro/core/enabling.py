"""Phase 2 — enabled/disabled labeling (Definition 3), vectorized.

Definition 3 (the paper's contribution): all faulty nodes are disabled,
all safe nodes enabled; an unsafe nonfaulty node starts disabled and is
switched to enabled once it has **two or more enabled neighbours**.
Like phase 1 the rule is monotone (disabled -> enabled only), so the
fixpoint is unique and the labeling well-defined.

:func:`enabled_fixpoint` iterates the rule on bit-packed rows, 64 nodes
to a word, with the enabled ghost ring written by
:meth:`~repro.mesh.topology.Topology.frame_packed`
(:mod:`repro.core._packed`).  :func:`enabled_step` is the same rule on
boolean grids, and :func:`enabled_fixpoint_reference` iterates it: the
oracle the packed loop is tested against.

The module also implements the *naive recursive* variant the paper
rejects — "an unsafe node is enabled **iff** it has two or more enabled
neighbours" — whose solutions are not unique: Figure 2(b) shows a block
of nonfaulty nodes that can consistently be all-enabled or all-disabled
("double status").  :func:`recursive_enable_fixpoints` enumerates every
consistent assignment for small instances, which is how the tests and
the ``double_status`` example demonstrate the pathology Definition 3
fixes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core import _packed
from repro.errors import ConvergenceError
from repro.mesh.topology import Topology
from repro.types import BoolGrid

__all__ = [
    "enabled_step",
    "enabled_fixpoint",
    "recursive_enable_fixpoints",
]


def _enabled_neighbor_count(topology: Topology, enabled: BoolGrid) -> np.ndarray:
    """Per-node count of enabled neighbours; ghost neighbours count as enabled."""
    east, west, north, south = topology.neighbor_views(enabled, fill=True)
    return (
        east.astype(np.int8)
        + west.astype(np.int8)
        + north.astype(np.int8)
        + south.astype(np.int8)
    )


def enabled_step(
    topology: Topology,
    faulty: BoolGrid,
    enabled: BoolGrid,
    out: BoolGrid | None = None,
) -> BoolGrid:
    """One synchronous round of the Definition-3 enable rule.

    A nonfaulty, currently disabled node becomes enabled when at least
    two of its neighbours are enabled (ghost ring counts as enabled).
    Enabled nodes stay enabled; faulty nodes never enable.  ``out``,
    when given, receives the result in place (it must not alias
    ``enabled`` or ``faulty``), letting the fixpoint loop ping-pong two
    buffers instead of allocating a fresh grid every round.
    """
    count = _enabled_neighbor_count(topology, enabled)
    if out is None:
        return (enabled | (count >= 2)) & ~faulty
    np.logical_or(enabled, count >= 2, out=out)
    out &= ~faulty
    return out


def _check_inputs(
    topology: Topology, faulty: BoolGrid, unsafe: BoolGrid, max_rounds: int | None
) -> int:
    """Validate the label planes; return the round budget."""
    if faulty.shape != topology.shape or unsafe.shape != topology.shape:
        raise ConvergenceError("label plane shapes disagree with the topology")
    if np.any(faulty & ~unsafe):
        raise ConvergenceError("phase-1 labels invalid: a faulty node is safe")
    return max_rounds if max_rounds is not None else (topology.num_nodes + 2)


def enabled_fixpoint(
    topology: Topology,
    faulty: BoolGrid,
    unsafe: BoolGrid,
    max_rounds: int | None = None,
) -> Tuple[BoolGrid, int]:
    """Iterate the Definition-3 enable rule from the phase-1 labels to a
    fixpoint, on bit-packed rows.

    Parameters
    ----------
    topology, faulty:
        As in :func:`repro.core.safety.unsafe_fixpoint`.
    unsafe:
        Phase-1 result; the initial enabled set is its complement (all
        safe nodes), per Definition 3.

    Returns
    -------
    (enabled, rounds):
        Fixpoint mask and the count of changing rounds — bit-for-bit
        those of :func:`enabled_fixpoint_reference`.

    Raises
    ------
    ConvergenceError
        If the round budget is exhausted (indicates corrupted inputs).
    """
    budget = _check_inputs(topology, faulty, unsafe, max_rounds)
    planes, rounds = enabled_fixpoints(topology, faulty[None], unsafe[None], budget)
    return planes[0], int(rounds[0])


def enabled_fixpoints(
    topology: Topology, faulty: np.ndarray, unsafe: np.ndarray, budget: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`enabled_fixpoint` of every plane of ``(T, width, height)``
    stacks in one packed loop: the fixpoint stack and each plane's
    changing-round count.  ``budget`` bounds every plane's rounds."""
    return _packed.fixpoint(
        topology, ~unsafe, faulty, _packed.two_of_four, True, budget, "enable"
    )


def enabled_fixpoint_reference(
    topology: Topology,
    faulty: BoolGrid,
    unsafe: BoolGrid,
    max_rounds: int | None = None,
) -> Tuple[BoolGrid, int]:
    """Iterate :func:`enabled_step` on boolean grids to its fixpoint.

    The oracle for :func:`enabled_fixpoint`: same signature, checks,
    budget, errors and results, one byte and four shifted grids per node
    and round.
    """
    budget = _check_inputs(topology, faulty, unsafe, max_rounds)
    enabled = ~unsafe  # all safe nodes enabled, all unsafe nodes disabled
    scratch = np.empty_like(enabled)
    count = int(np.count_nonzero(enabled))
    rounds = 0
    for _ in range(budget + 1):
        nxt = enabled_step(topology, faulty, enabled, out=scratch)
        # Monotone rule: the enabled set only grows (faulty nodes were
        # never enabled), so an unchanged popcount means an unchanged
        # grid — no full array compare.
        nxt_count = int(np.count_nonzero(nxt))
        if nxt_count == count:
            return enabled, rounds
        enabled, scratch = nxt, enabled
        count = nxt_count
        rounds += 1
    raise ConvergenceError(
        f"enable labeling did not converge within {budget} rounds"
    )


def recursive_enable_fixpoints(
    topology: Topology,
    faulty: BoolGrid,
    unsafe: BoolGrid,
    limit: int = 22,
) -> List[BoolGrid]:
    """All consistent assignments of the *naive recursive* enable rule.

    The naive rule demands, for every unsafe nonfaulty node ``u``::

        enabled(u)  <=>  (number of enabled neighbours of u) >= 2

    with safe nodes (and ghosts) enabled and faulty nodes disabled.
    This is a boolean fixpoint equation that may have several solutions;
    the paper's Figure 2(b) is the canonical two-solution instance.

    The enumeration brute-forces the free variables (the unsafe
    nonfaulty nodes) and keeps assignments satisfying the equivalence,
    so it is exponential and only meant for demonstration instances.

    Parameters
    ----------
    limit:
        Maximum number of free variables accepted (raises beyond it).

    Returns
    -------
    list of enabled masks, deduplicated, in lexicographic order of the
    free-variable assignment (the all-least solution — Definition 3's
    fixpoint — comes first).
    """
    free = np.argwhere(unsafe & ~faulty)
    n = len(free)
    if n > limit:
        raise ConvergenceError(
            f"{n} free nodes exceed the enumeration limit ({limit})"
        )
    base_enabled = ~unsafe
    solutions: List[BoolGrid] = []
    for bits in range(1 << n):
        enabled = base_enabled.copy()
        for i in range(n):
            if bits >> i & 1:
                enabled[free[i][0], free[i][1]] = True
        count = _enabled_neighbor_count(topology, enabled)
        consistent = True
        for i in range(n):
            x, y = free[i]
            want = count[x, y] >= 2
            if bool(enabled[x, y]) != bool(want):
                consistent = False
                break
        if consistent:
            solutions.append(enabled)
    return solutions
