"""Channels, channel dependency graphs and deadlock detection.

A *channel* is one direction of one physical link; deadlock analysis
works on channels, not links.  Virtual channels multiplex a physical
channel into several logical ones with separate buffers — the mechanism
the paper's Section 1 refers to when noting that convex fault regions
let routing algorithms stay deadlock-free "using relatively few virtual
channels".

Dally-Seitz: a deterministic routing function is deadlock-free iff its
*channel dependency graph* (CDG) — channels as vertices, an edge from
channel ``a`` to channel ``b`` whenever some packet may hold ``a`` while
requesting ``b`` — is acyclic.

This module builds the CDG of any :class:`~repro.routing.base.Router`
as a plain ``{channel: successors}`` dict by enumerating routed paths
(exhaustively over all enabled pairs on small machines, or over a
caller-supplied sample) and finds its cycles with one iterative
depth-first search.  The classic results replay as tests: XY routing on
a fault-free mesh is acyclic; unconstrained wall-following detours on
one virtual channel can create cycles, which is exactly why the
fault-tolerant algorithms the paper supports spend extra virtual
channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import RoutingError
from repro.routing.base import Router
from repro.types import Coord

__all__ = [
    "Channel",
    "channel_dependency_graph",
    "deadlock_cycles",
    "is_deadlock_free",
]


@dataclass(frozen=True, order=True)
class Channel:
    """One directed (virtual) channel ``src -> dst`` with a VC index."""

    src: Coord
    dst: Coord
    vc: int = 0

    def __post_init__(self) -> None:
        # Mesh links differ by 1 in one dimension; torus wrap links differ
        # by (extent - 1).  Either way the endpoints must differ in exactly
        # one dimension and must not coincide.
        dx = abs(self.src[0] - self.dst[0])
        dy = abs(self.src[1] - self.dst[1])
        if (dx == 0) == (dy == 0):
            raise RoutingError(f"channel endpoints {self.src}->{self.dst} not adjacent")
        if self.vc < 0:
            raise RoutingError(f"virtual channel index must be >= 0, got {self.vc}")

    @property
    def physical(self) -> "Channel":
        """The underlying physical channel (VC index 0)."""
        return Channel(self.src, self.dst, 0)


#: A CDG: each channel maps to the channels a packet holding it may request.
Graph = Dict[Channel, Set[Channel]]


def channel_dependency_graph(
    router: Router,
    pairs: Optional[Iterable[Tuple[Coord, Coord]]] = None,
) -> Graph:
    """Build the CDG induced by the router on the given traffic pairs.

    ``pairs`` defaults to every ordered pair of distinct enabled nodes
    (small machines only).  Each delivered path contributes a dependency
    between every pair of consecutive channels it occupies.  Dropped
    packets contribute the prefix they travelled (they hold those
    channels too).
    """
    if pairs is None:
        nodes = [
            (x, y)
            for x, column in enumerate(router.view.enabled.tolist())
            for y, on in enumerate(column)
            if on
        ]
        pairs = permutations(nodes, 2)
    g: Graph = {}
    for source, dest in pairs:
        path = router.route(source, dest).path
        chans = [Channel(a, b) for a, b in zip(path, path[1:])]
        for ch in chans:
            g.setdefault(ch, set())
        for a, b in zip(chans, chans[1:]):
            g[a].add(b)
    return g


def deadlock_cycles(g: Graph, limit: int = 10) -> List[List[Channel]]:
    """Up to ``limit`` elementary cycles of a CDG (empty list = deadlock-free).

    One depth-first search over ``g``; each back edge closes the cycle
    formed by the stretch of the search path from its target to its
    source.  A graph is acyclic iff the search meets no back edge.
    """
    cycles: List[List[Channel]] = []
    done: Set[Channel] = set()
    for root in g:
        if root in done:
            continue
        path = [root]
        on_path = {root: 0}  # channel -> its index in ``path``
        stack = [iter(g[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    cycles.append(path[on_path[nxt]:])
                    if len(cycles) >= limit:
                        return cycles
                elif nxt not in done:
                    on_path[nxt] = len(path)
                    path.append(nxt)
                    stack.append(iter(g[nxt]))
                    break
            else:
                finished = path.pop()
                del on_path[finished]
                done.add(finished)
                stack.pop()
    return cycles


def is_deadlock_free(router: Router) -> bool:
    """Whether the router's CDG over all enabled pairs is acyclic."""
    return not deadlock_cycles(channel_dependency_graph(router), limit=1)
