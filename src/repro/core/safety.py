"""Phase 1 — safe/unsafe labeling (Definitions 2a and 2b), vectorized.

The distributed algorithm of the paper initialises every faulty node to
*unsafe* and every nonfaulty node to *safe*, then repeats synchronous
rounds in which each nonfaulty node flips to unsafe when its neighbours'
statuses satisfy the chosen definition, until no status changes.

Because all nodes update simultaneously from the previous round's
statuses, the distributed execution is exactly a **Jacobi iteration** of
a monotone operator: statuses only ever move safe -> unsafe, so the
fixpoint exists, is unique, and is reached in at most the maximum faulty
block diameter rounds.  :func:`unsafe_fixpoint` iterates that operator
on bit-packed rows — 64 nodes to a word, a dozen word operations per
round (:mod:`repro.core._packed`) — and returns both the fixpoint and
the number of *changing* rounds, which is identical to the round count
of the fabric backend (:mod:`repro.core.distributed`; a property test
pins the two together).

:func:`unsafe_step` is the same rule written on boolean grids, one
shifted view per neighbour; :func:`unsafe_fixpoint_reference` iterates
it and is the oracle the packed loop is tested against.

Ghost nodes (mesh boundary) are permanently safe: ``fill=False`` of
:meth:`~repro.mesh.topology.Topology.shifted` and of its packed sibling
:meth:`~repro.mesh.topology.Topology.frame_packed`; a torus has no
boundary and ignores the fill.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import _packed
from repro.errors import ConvergenceError
from repro.core.status import SafetyDefinition
from repro.mesh.topology import Topology
from repro.types import BoolGrid

__all__ = ["unsafe_step", "unsafe_fixpoint"]


def unsafe_step(
    topology: Topology,
    faulty: BoolGrid,
    unsafe: BoolGrid,
    definition: SafetyDefinition,
    out: BoolGrid | None = None,
) -> BoolGrid:
    """One synchronous round of the unsafe rule.

    Returns the next unsafe mask given the current one.  Faulty nodes
    stay unsafe; nonfaulty nodes apply Definition 2a or 2b to their
    neighbours' *current* labels.  ``out``, when given, receives the
    result in place (it must not alias ``unsafe`` or ``faulty``) so the
    fixpoint loop can ping-pong two buffers instead of allocating a
    fresh grid every round.
    """
    east, west, north, south = topology.neighbor_views(unsafe, fill=False)
    if definition is SafetyDefinition.DEF_2A:
        # Unsafe if two or more unsafe neighbours, any dimensions.
        count = (
            east.astype(np.int8)
            + west.astype(np.int8)
            + north.astype(np.int8)
            + south.astype(np.int8)
        )
        newly = count >= 2
    else:
        # Unsafe if an unsafe neighbour in both dimensions.
        newly = (east | west) & (north | south)
    if out is None:
        return unsafe | newly | faulty
    np.logical_or(unsafe, newly, out=out)
    np.logical_or(out, faulty, out=out)
    return out


def _check_inputs(topology: Topology, faulty: BoolGrid, max_rounds: int | None) -> int:
    """Validate the fault mask; return the round budget."""
    if faulty.shape != topology.shape:
        raise ConvergenceError(
            f"fault mask shape {faulty.shape} != topology shape {topology.shape}"
        )
    return max_rounds if max_rounds is not None else (topology.num_nodes + 2)


def unsafe_fixpoint(
    topology: Topology,
    faulty: BoolGrid,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    max_rounds: int | None = None,
) -> Tuple[BoolGrid, int]:
    """Iterate the unsafe rule to its fixpoint on bit-packed rows.

    Parameters
    ----------
    topology:
        Mesh or torus; controls boundary handling.
    faulty:
        Ground-truth fault mask of the topology's shape.
    definition:
        Which unsafe rule to apply.
    max_rounds:
        Safety budget; defaults to the node count + 2, which is a true
        upper bound for any monotone labeling (every changing round
        flips at least one node).  Definition 2b converges within the
        maximum block diameter (the paper's ``max d(B)`` bound), but the
        more aggressive Definition 2a can cascade across merging blocks
        and exceed the network diameter, so the loose bound is the only
        safe default.

    Resuming: the rule is monotone with a unique fixpoint, so any mask
    ``S`` with faults ⊆ ``S`` ⊆ fixpoint(faults) passed as ``faulty``
    gives the plane and round count of the schedule warm-started from
    ``S`` — every cell of ``S`` starts unsafe, and the fixpoint above it
    is the faults' own.  The incremental engine resumes its batch deltas
    this way.

    Returns
    -------
    (unsafe, rounds):
        The fixpoint mask and the number of rounds in which at least one
        node changed status (0 for a fault-free machine) — bit-for-bit
        those of :func:`unsafe_fixpoint_reference`.

    Raises
    ------
    ConvergenceError
        If the budget is exhausted — impossible for well-formed inputs,
        so never silently tolerated.
    """
    budget = _check_inputs(topology, faulty, max_rounds)
    planes, rounds = unsafe_fixpoints(topology, faulty[None], definition, budget)
    return planes[0], int(rounds[0])


def unsafe_fixpoints(
    topology: Topology,
    faulty: np.ndarray,
    definition: SafetyDefinition,
    budget: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`unsafe_fixpoint` of every plane of a ``(T, width, height)``
    fault stack in one packed loop: the fixpoint stack and each plane's
    changing-round count.  ``budget`` bounds every plane's rounds."""
    rule = (
        _packed.two_of_four
        if definition is SafetyDefinition.DEF_2A
        else _packed.both_dimensions
    )
    return _packed.fixpoint(topology, faulty, faulty, rule, False, budget, "unsafe")


def unsafe_fixpoint_reference(
    topology: Topology,
    faulty: BoolGrid,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    max_rounds: int | None = None,
) -> Tuple[BoolGrid, int]:
    """Iterate :func:`unsafe_step` on boolean grids to its fixpoint.

    The oracle for :func:`unsafe_fixpoint`: same signature, checks,
    budget, errors and results, one byte and four shifted grids per node
    and round.
    """
    budget = _check_inputs(topology, faulty, max_rounds)
    unsafe = faulty.copy()
    scratch = np.empty_like(unsafe)
    count = int(np.count_nonzero(unsafe))
    rounds = 0
    for _ in range(budget + 1):
        nxt = unsafe_step(topology, faulty, unsafe, definition, out=scratch)
        # Monotone rule: the unsafe set only grows, so an unchanged
        # popcount means an unchanged grid — no full array compare.
        nxt_count = int(np.count_nonzero(nxt))
        if nxt_count == count:
            return unsafe, rounds
        unsafe, scratch = nxt, unsafe
        count = nxt_count
        rounds += 1
    raise ConvergenceError(
        f"unsafe labeling did not converge within {budget} rounds"
    )
