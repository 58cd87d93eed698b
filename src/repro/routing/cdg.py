"""Channel dependency graphs and deadlock detection.

Dally-Seitz: a deterministic routing function is deadlock-free iff its
*channel dependency graph* (CDG) — channels as vertices, an edge from
channel ``a`` to channel ``b`` whenever some packet may hold ``a`` while
requesting ``b`` — is acyclic.

This module builds the CDG of any :class:`~repro.routing.base.Router`
by enumerating routed paths (exhaustively over all enabled pairs on
small machines, or over a caller-supplied sample) and checks acyclicity
with :mod:`networkx`, imported on first use so that importing the
routing package does not load it.  The classic results replay as
tests: XY routing on a fault-free mesh is acyclic; unconstrained
wall-following detours on one virtual channel can create cycles, which
is exactly why the fault-tolerant algorithms the paper supports spend
extra virtual channels.
"""

from __future__ import annotations

from itertools import permutations
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.routing.base import Router
from repro.routing.channels import Channel
from repro.types import Coord

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "channel_dependency_graph",
    "deadlock_cycles",
    "is_deadlock_free",
    "all_enabled_pairs",
]


def all_enabled_pairs(router: Router) -> List[Tuple[Coord, Coord]]:
    """Every ordered pair of distinct enabled nodes (small machines only)."""
    import numpy as np

    xs, ys = np.nonzero(router.view.enabled)
    nodes = [(int(x), int(y)) for x, y in zip(xs, ys)]
    return list(permutations(nodes, 2))


def channel_dependency_graph(
    router: Router,
    pairs: Optional[Iterable[Tuple[Coord, Coord]]] = None,
) -> nx.DiGraph:
    """Build the CDG induced by the router on the given traffic pairs.

    Each delivered path contributes a dependency between every pair of
    consecutive channels it occupies.  Dropped packets contribute the
    prefix they travelled (they hold those channels too).
    """
    import networkx as nx

    if pairs is None:
        pairs = all_enabled_pairs(router)
    g = nx.DiGraph()
    for source, dest in pairs:
        result = router.route(source, dest)
        path = result.path
        chans = [Channel(path[i], path[i + 1]) for i in range(len(path) - 1)]
        for ch in chans:
            g.add_node(ch)
        for a, b in zip(chans, chans[1:]):
            g.add_edge(a, b)
    return g


def deadlock_cycles(g: nx.DiGraph, limit: int = 10) -> List[List[Channel]]:
    """Up to ``limit`` elementary cycles of a CDG (empty list = deadlock-free)."""
    import networkx as nx

    out: List[List[Channel]] = []
    for cycle in nx.simple_cycles(g):
        out.append(cycle)
        if len(out) >= limit:
            break
    return out


def is_deadlock_free(
    router: Router,
    pairs: Optional[Iterable[Tuple[Coord, Coord]]] = None,
) -> bool:
    """Whether the router's CDG over the given traffic is acyclic."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(channel_dependency_graph(router, pairs))
