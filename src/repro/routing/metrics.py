"""Routing quality metrics over fault-model views.

The benchmark that motivates the whole paper: take one fault pattern,
build the classic faulty-block view and the refined disabled-region
view, run the same router over the same traffic on both, and compare

* **delivery rate** — fraction of packets that arrive,
* **reachability** — fraction of pairs connected at all (BFS oracle),
* **detour overhead** — mean extra hops beyond the Manhattan distance,
* **minimality** — fraction of delivered packets on shortest paths,

plus the number of enabled nodes each view offers.  The refined view is
a superset of the block view's enabled nodes, so every metric can only
improve — the benches quantify by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.routing.base import FaultModelView, Router
from repro.routing.bfs import BFSRouter
from repro.routing.packet import RouteResult
from repro.types import Coord

__all__ = ["RoutingMetrics", "evaluate_router", "sample_pairs"]


@dataclass(frozen=True)
class RoutingMetrics:
    """Aggregated outcome of routing a traffic sample."""

    router: str
    num_pairs: int
    delivered: int
    reachable: int
    total_hops: int
    total_detour: int
    minimal: int
    num_enabled: int

    @property
    def delivery_rate(self) -> float:
        """Delivered / attempted (1.0 for an empty sample)."""
        return self.delivered / self.num_pairs if self.num_pairs else 1.0

    @property
    def reachability(self) -> float:
        """Connected pairs / attempted, per the BFS oracle."""
        return self.reachable / self.num_pairs if self.num_pairs else 1.0

    @property
    def mean_hops(self) -> float:
        """Mean hops of delivered packets."""
        return self.total_hops / self.delivered if self.delivered else float("nan")

    @property
    def mean_detour(self) -> float:
        """Mean extra hops (beyond Manhattan) of delivered packets."""
        return self.total_detour / self.delivered if self.delivered else float("nan")

    @property
    def minimal_fraction(self) -> float:
        """Fraction of delivered packets that travelled a minimal path."""
        return self.minimal / self.delivered if self.delivered else float("nan")


def sample_pairs(
    view: FaultModelView, count: int, rng: np.random.Generator
) -> List[Tuple[Coord, Coord]]:
    """Draw ``count`` random distinct enabled source/destination pairs."""
    return [view.random_enabled_pair(rng) for _ in range(count)]


def evaluate_router(
    router: Router,
    pairs: Sequence[Tuple[Coord, Coord]],
) -> RoutingMetrics:
    """Route every pair and aggregate the metrics.

    Parameters
    ----------
    router:
        The router under test.
    pairs:
        Traffic sample (source, dest) — endpoints need not be enabled in
        the router's view; disabled endpoints count as failures, which
        is deliberate when comparing views with different enabled sets.

    Reachability is judged by a BFS router over the same view.
    """
    oracle = BFSRouter(router.view)
    delivered = reachable = total_hops = total_detour = minimal = 0
    for source, dest in pairs:
        res: RouteResult = router.route(source, dest)
        if oracle.route(source, dest).delivered:
            reachable += 1
        if res.delivered:
            delivered += 1
            total_hops += res.hops
            total_detour += res.detour
            if res.is_minimal:
                minimal += 1
    return RoutingMetrics(
        router=router.name,
        num_pairs=len(pairs),
        delivered=delivered,
        reachable=reachable,
        total_hops=total_hops,
        total_detour=total_detour,
        minimal=minimal,
        num_enabled=router.view.num_enabled,
    )
