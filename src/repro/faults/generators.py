"""Fault-pattern generators.

The paper's simulation injects ``f`` faults "randomly selected among
nodes in the mesh" — :func:`uniform_random` reproduces that workload.
The other generators build the structured patterns the surrounding
literature studies (clustered failures, whole-rectangle outages, and
the canonical L/T/+/U/H shapes), used by the ablation benchmarks, the
partitioning experiments and the shaped-region tests.

All randomness flows through an explicit :class:`numpy.random.Generator`
so every experiment is reproducible from its recorded seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FaultModelError
from repro.faults.faultset import FaultSet
from repro.faults.schedule import FaultSchedule
from repro.geometry import shapes as _shapes
from repro.types import Coord

__all__ = [
    "uniform_random",
    "clustered",
    "rectangle_outage",
    "shaped",
    "staggered_crashes",
]

_SHAPE_BUILDERS = {
    "rect": _shapes.rectangle,
    "L": _shapes.l_shape,
    "T": _shapes.t_shape,
    "+": _shapes.plus_shape,
    "U": _shapes.u_shape,
    "H": _shapes.h_shape,
}


def uniform_random(
    shape: Tuple[int, int], count: int, rng: np.random.Generator
) -> FaultSet:
    """``count`` distinct faults drawn uniformly from the grid.

    This is the paper's Figure-5 workload (100x100 mesh, 0 <= f <= 100).

    Raises
    ------
    FaultModelError
        If ``count`` is negative or exceeds the number of nodes.
    """
    w, h = shape
    total = w * h
    if not 0 <= count <= total:
        raise FaultModelError(f"cannot place {count} faults on {total} nodes")
    flat = rng.choice(total, size=count, replace=False)
    mask = np.zeros(total, dtype=bool)
    mask[flat] = True
    return FaultSet.from_mask(mask.reshape(shape))


def clustered(
    shape: Tuple[int, int],
    count: int,
    rng: np.random.Generator,
    clusters: int = 3,
    spread: float = 1.5,
) -> FaultSet:
    """``count`` faults concentrated around ``clusters`` random centres.

    Each fault picks a centre uniformly, then offsets by a rounded
    2-D normal with standard deviation ``spread``; draws landing
    outside the grid or on an existing fault are retried.  Clustered
    faults model spatially correlated failures (power or cooling
    domains) and produce much larger faulty blocks than the uniform
    workload at equal ``f`` — the regime where the paper's node
    activation matters most.
    """
    w, h = shape
    total = w * h
    if not 0 <= count <= total:
        raise FaultModelError(f"cannot place {count} faults on {total} nodes")
    if clusters < 1:
        raise FaultModelError(f"need at least one cluster, got {clusters}")
    if spread <= 0:
        raise FaultModelError(f"spread must be positive, got {spread}")
    centres = [
        (int(rng.integers(0, w)), int(rng.integers(0, h))) for _ in range(clusters)
    ]
    mask = np.zeros(shape, dtype=bool)
    placed = 0
    # Rejection sampling with a widening spread so dense requests terminate.
    widen = 1.0
    attempts_since_progress = 0
    while placed < count:
        cx, cy = centres[int(rng.integers(0, clusters))]
        dx, dy = rng.normal(0.0, spread * widen, size=2)
        x, y = int(round(cx + dx)), int(round(cy + dy))
        if 0 <= x < w and 0 <= y < h and not mask[x, y]:
            mask[x, y] = True
            placed += 1
            attempts_since_progress = 0
        else:
            attempts_since_progress += 1
            if attempts_since_progress > 50:
                widen *= 1.5
                attempts_since_progress = 0
    return FaultSet.from_mask(mask)


def rectangle_outage(
    shape: Tuple[int, int],
    rng: np.random.Generator,
    extent: Tuple[int, int] | None = None,
) -> FaultSet:
    """A full rectangular block of faults at a random position.

    Models a whole-subarray outage (e.g. a failed board).  ``extent``
    fixes the block size; by default a size between 2x2 and a quarter of
    each dimension is drawn.
    """
    w, h = shape
    if extent is None:
        bw = int(rng.integers(2, max(3, w // 4) + 1))
        bh = int(rng.integers(2, max(3, h // 4) + 1))
    else:
        bw, bh = extent
    if bw < 1 or bh < 1 or bw > w or bh > h:
        raise FaultModelError(f"block {bw}x{bh} does not fit grid {shape}")
    ax = int(rng.integers(0, w - bw + 1))
    ay = int(rng.integers(0, h - bh + 1))
    return FaultSet(_shapes.rectangle(shape, (ax, ay), bw, bh))


def shaped(
    shape: Tuple[int, int],
    kind: str,
    anchor: Coord,
    extent: Tuple[int, int],
) -> FaultSet:
    """A deterministic shaped fault region.

    ``kind`` is one of ``"rect"``, ``"L"``, ``"T"``, ``"+"``, ``"U"``,
    ``"H"``.  The L/T/+ kinds produce orthoconvex fault regions; U/H
    produce non-orthoconvex ones (paper Section 2), which is exactly
    what the partition experiments feed the pipeline.
    """
    try:
        builder = _SHAPE_BUILDERS[kind]
    except KeyError:
        raise FaultModelError(
            f"unknown shape kind {kind!r}; expected one of {sorted(_SHAPE_BUILDERS)}"
        ) from None
    return FaultSet(builder(shape, anchor, *extent))


def staggered_crashes(
    crashes: FaultSet,
    rng: np.random.Generator,
    max_time: int = 10,
    min_time: int = 1,
) -> FaultSchedule:
    """Turn a fault pattern into a dynamic crash schedule.

    Every node of ``crashes`` is assigned an independent uniform crash
    time in ``[min_time, max_time]``, so any of this module's pattern
    generators doubles as a *dynamic-fault* workload: draw the pattern,
    then stagger it over the run.  Deterministic given the generator
    state, like everything else here.
    """
    if min_time < 1 or max_time < min_time:
        raise FaultModelError(
            f"need 1 <= min_time <= max_time, got [{min_time}, {max_time}]"
        )
    coords = sorted(crashes)
    times = rng.integers(min_time, max_time + 1, size=len(coords))
    return FaultSchedule((int(t), c) for t, c in zip(times, coords))
