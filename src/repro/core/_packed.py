"""Bit-packed Jacobi loop shared by the dense phase-1 and phase-2 fixpoints.

Every label of the paper is one bit, and every round reads only a
node's four neighbours, so a label plane packs 64 cells to a word and a
round becomes a dozen whole-array word operations.

**Layout.**  A plane lives in the frame of
:func:`repro.geometry._bitplanes.pack`: ``width + 2`` rows of
``1 + ceil(height / 64)`` little-endian words, frame row ``x + 1``
holding x-row ``x`` behind a guard word, with ghost rows 0 and
``width + 1``.  Read as one flat word array,

* the E and W neighbours of every cell are the same slice shifted by
  one frame row;
* the N neighbour is a 1-bit right shift with a carry from the next
  word, the S neighbour a 1-bit left shift with a carry from the
  previous word; the guard words stop carries between rows.

A row's N neighbour at ``y = height - 1`` is therefore bit ``height`` of
the row (the first padding bit), and its S neighbour at ``y = 0`` is
bit 63 of the row's guard word.  Those two slots and the ghost rows
make up the frame's *ring*, which
:meth:`~repro.mesh.topology.Topology.frame_packed` writes: the ghost
label on a mesh, the wrap-around copies on a torus.  Every other
padding and guard bit is cleared by the ``keep`` mask each round, so
the ring is the only boundary state a round ever reads.

**Stacks.**  The loop labels a ``(T, width, height)`` stack of
independent planes at once, in a ``(T, width + 2, words)`` frame: every
plane keeps its own ghost rows and ring slots, which ``frame_packed``
writes for all planes together.  Ghost rows are cleared by ``keep``
like padding, so the rows between two planes stop every read from
crossing into the other plane, and the flat views run over the whole
stack unchanged.  The public 2-D fixpoints are the ``T = 1`` call.

A plane has converged once a round leaves its words unchanged, and it
stays converged, so each plane's round count is the number of rounds
that changed it; the loop stops when no plane changes, and unpacks the
stack once, at the end.  The bool-grid loops in
:mod:`repro.core.safety` and :mod:`repro.core.enabling`
(``*_fixpoint_reference``) are the oracles this loop is tested against.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.errors import ConvergenceError
from repro.geometry._bitplanes import WORD, pack, unpack
from repro.mesh.topology import Topology

_ONE = np.uint64(1)
_TOP = np.uint64(63)

#: ``rule(c, cn, cp, e, w, out, t1, t2)`` writes the rule's firing set
#: into ``out``: ``c`` is the current plane as a flat word array, ``cn``
#: / ``cp`` the same array shifted one word forward / back (the carry
#: sources of the N / S views), ``e`` / ``w`` the E / W row views;
#: ``t1`` and ``t2`` are scratch buffers.
Rule = Callable[..., None]


def _north_south(c, cn, cp, n, s, t) -> None:
    """N and S views: 1-bit shifts with the carry from the adjacent word."""
    np.right_shift(c, _ONE, out=n)
    np.left_shift(cn, _TOP, out=t)
    n |= t
    np.left_shift(c, _ONE, out=s)
    np.right_shift(cp, _TOP, out=t)
    s |= t


def both_dimensions(c, cn, cp, e, w, out, t1, t2) -> None:
    """Definition 2b: a neighbour in both dimensions, ``(E|W) & (N|S)``."""
    _north_south(c, cn, cp, out, t1, t2)
    out |= t1
    np.bitwise_or(e, w, out=t1)
    out &= t1


def two_of_four(c, cn, cp, e, w, out, t1, t2) -> None:
    """Definitions 2a and 3: at least two of the four neighbours,
    ``(E&W) | (N&S) | ((E|W) & (N|S))``."""
    _north_south(c, cn, cp, t1, t2, out)
    np.bitwise_and(t1, t2, out=out)
    t1 |= t2
    np.bitwise_or(e, w, out=t2)
    t1 &= t2
    out |= t1
    np.bitwise_and(e, w, out=t2)
    out |= t2


def fixpoint(
    topology: Topology,
    start: np.ndarray,
    faulty: np.ndarray,
    rule: Rule,
    fill: bool,
    budget: int,
    what: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Iterate ``next = cur | (rule(cur) & ~faulty)`` to its fixpoint on
    every plane of a ``(T, width, height)`` stack at once.

    ``start`` is the stack of initial planes, ``fill`` the ghost label of
    a mesh (``False`` for unsafe, ``True`` for enabled).  Returns the
    fixpoint stack and every plane's number of changing rounds; raises
    :class:`ConvergenceError` naming ``what`` once ``budget`` rounds pass
    with some plane still changing.
    """
    height = topology.height
    planes = start.shape[0]
    cur = pack(start)
    topology.frame_packed(cur, fill)
    nxt = cur.copy()
    stride = cur.shape[-1]
    lo, hi = stride, cur.size - stride
    # Cells that may change: valid nonfaulty bits.  Its zero padding,
    # guard bits and ghost rows are the per-round padding mask; the
    # ghost rows between planes keep every plane from reading another.
    keep = pack(~faulty).reshape(-1)[lo:hi]
    temps = [np.empty(hi - lo, dtype=WORD) for _ in range(2)]
    # Which words changed in a round, over a whole frame whose first and
    # last rows stay False, so that it splits into one row per plane.
    diff = np.zeros(cur.size, dtype=bool)
    changed = diff.reshape(planes, -1)

    def views(frame):
        flat = frame.reshape(-1)
        return (
            flat[lo:hi],
            flat[lo + 1 : hi + 1],
            flat[lo - 1 : hi - 1],
            flat[lo + stride : hi + stride],
            flat[lo - stride : hi - stride],
        )

    cur_v, nxt_v = views(cur), views(nxt)
    wraps = topology.wraps
    rounds = np.zeros(planes, dtype=np.int64)
    for _ in range(budget + 1):
        out = nxt_v[0]
        rule(*cur_v, out, *temps)
        out &= keep
        out |= cur_v[0]
        np.not_equal(out, cur_v[0], out=diff[lo:hi])
        moved = changed.any(axis=1)
        if not moved.any():
            return unpack(cur, height), rounds
        if wraps:
            topology.frame_packed(nxt, fill)
        rounds += moved
        cur, nxt = nxt, cur
        cur_v, nxt_v = nxt_v, cur_v
    raise ConvergenceError(f"{what} labeling did not converge within {budget} rounds")
