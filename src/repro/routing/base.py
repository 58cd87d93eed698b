"""Router interface and the fault-model view routers operate on.

A :class:`FaultModelView` is what the paper's labeling hands to the
router: the set of *enabled* nodes (the only ones that "participate in
routing activities", Section 3) plus the fault regions as geometry.
Two views of the same machine are compared throughout the benchmarks:

* the **faulty-block view** — enabled = everything outside the
  rectangular blocks (the classic model), and
* the **disabled-region view** — enabled = phase-2 enabled nodes (the
  paper's refined model), which strictly contains the former.

Routers are deterministic functions from (source, dest) to a path
through enabled nodes; they never tunnel through disabled or faulty
nodes.  The hop-by-hop routers (XY, f-ring, safety levels) share one
walk loop, :meth:`Router._walk`, over a step function.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import LabelingResult
from repro.errors import RoutingError
from repro.geometry.cells import CellSet
from repro.mesh.topology import Topology
from repro.routing.packet import DropReason, RouteResult, finish
from repro.types import BoolGrid, Coord

__all__ = ["FaultModelView", "Router", "hop_budget"]

#: ``step(at, dest, state) -> (next node | None, new state)``: one hop
#: of a walk; ``None`` refuses the hop.
Step = Callable[[Coord, Coord, object], Tuple[Optional[Coord], object]]


def hop_budget(topology: Topology) -> int:
    """Default per-packet hop budget: any sane detour fits in 4x the
    diameter."""
    return 4 * (topology.diameter + 1) + 16


class FaultModelView:
    """A topology plus the enabled-node mask a router is allowed to use.

    Parameters
    ----------
    topology:
        The machine.
    enabled:
        Mask of nodes permitted to carry traffic.
    obstacles:
        The fault regions as cell sets (rectangles for the block model,
        orthogonal convex polygons for the refined model); geometric
        routers use them to plan detours.
    """

    def __init__(
        self,
        topology: Topology,
        enabled: BoolGrid,
        obstacles: Tuple[CellSet, ...] = (),
    ):
        if enabled.shape != topology.shape:
            raise RoutingError(
                f"enabled mask shape {enabled.shape} != topology {topology.shape}"
            )
        self.topology = topology
        self.enabled = enabled
        self.obstacles = tuple(obstacles)

    # -- canonical constructions ---------------------------------------------

    @classmethod
    def from_blocks(cls, result: LabelingResult) -> "FaultModelView":
        """The classic faulty-block model: every unsafe node is disabled."""
        return cls(
            result.topology,
            enabled=~result.labels.unsafe,
            obstacles=tuple(b.cells for b in result.blocks),
        )

    @classmethod
    def from_regions(cls, result: LabelingResult) -> "FaultModelView":
        """The paper's refined model: phase-2 enabled nodes participate."""
        return cls(
            result.topology,
            enabled=result.labels.enabled.copy(),
            obstacles=tuple(r.cells for r in result.regions),
        )

    # -- queries -----------------------------------------------------------------

    def is_enabled(self, c: Coord) -> bool:
        """Whether node ``c`` may carry traffic."""
        return self.topology.contains(c) and bool(self.enabled[c])

    @property
    def num_enabled(self) -> int:
        """How many nodes participate in routing under this view."""
        return int(self.enabled.sum())

    def random_enabled_pair(self, rng: np.random.Generator) -> Tuple[Coord, Coord]:
        """Draw a uniform source/destination pair of distinct enabled nodes.

        Raises
        ------
        RoutingError
            If fewer than two nodes are enabled.
        """
        xs, ys = np.nonzero(self.enabled)
        if len(xs) < 2:
            raise RoutingError("fewer than two enabled nodes")
        i, j = rng.choice(len(xs), size=2, replace=False)
        return (int(xs[i]), int(ys[i])), (int(xs[j]), int(ys[j]))


class Router(abc.ABC):
    """A deterministic unicast router over a :class:`FaultModelView`."""

    #: Human-readable router name for benchmark tables.
    name: str = "router"

    def __init__(self, view: FaultModelView):
        self.view = view
        self.max_hops = hop_budget(view.topology)

    def route(self, source: Coord, dest: Coord) -> RouteResult:
        """Route one packet; never raises for routable inputs.

        Endpoint validation is uniform across routers: both endpoints
        must be enabled nodes, otherwise the packet is dropped with
        ``BAD_ENDPOINT``.
        """
        if not (self.view.is_enabled(source) and self.view.is_enabled(dest)):
            return finish(source, dest, [source], DropReason.BAD_ENDPOINT)
        if source == dest:
            return finish(source, dest, [source], DropReason.NONE)
        return self._route(source, dest)

    @abc.abstractmethod
    def _route(self, source: Coord, dest: Coord) -> RouteResult:
        """Subclass hook; endpoints are validated and distinct."""

    # -- shared helpers ------------------------------------------------------------

    def _walk(self, source: Coord, dest: Coord, step: Step, state) -> RouteResult:
        """Follow ``step`` from ``source`` and ``state`` until ``dest``.

        Before each hop the walk drops the packet with ``BUDGET`` once
        the path exceeds ``max_hops``, then with ``BLOCKED`` when it
        stands on a (cell, state) it stood on before (a cycle) or when
        ``step`` refuses the hop.
        """
        path = [source]
        at = source
        seen = set()
        while at != dest:
            if len(path) > self.max_hops:
                return finish(source, dest, path, DropReason.BUDGET)
            key = (at, state)
            if key in seen:
                return finish(source, dest, path, DropReason.BLOCKED)
            seen.add(key)
            at, state = step(at, dest, state)
            if at is None:
                return finish(source, dest, path, DropReason.BLOCKED)
            path.append(at)
        return finish(source, dest, path, DropReason.NONE)

    def _xy_preferred(self, at: Coord, dest: Coord) -> List[Coord]:
        """Dimension-order preferred next hops: X first, then Y."""
        hops: List[Coord] = []
        if at[0] != dest[0]:
            hops.append((at[0] + (1 if dest[0] > at[0] else -1), at[1]))
        if at[1] != dest[1]:
            hops.append((at[0], at[1] + (1 if dest[1] > at[1] else -1)))
        return hops
