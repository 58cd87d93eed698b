"""Unit tests for channels and the channel dependency graph."""

from collections import deque

import numpy as np
import pytest

from repro.core import label_mesh
from repro.errors import RoutingError
from repro.faults import FaultSet, uniform_random
from repro.mesh import Mesh2D
from repro.routing import (
    Channel,
    FaultModelView,
    MinimalRouter,
    WallRouter,
    XYRouter,
    channel_dependency_graph,
    deadlock_cycles,
    is_deadlock_free,
)


class TestChannel:
    def test_valid_channel(self):
        c = Channel((0, 0), (1, 0))
        assert c.physical == c

    def test_virtual_channel_distinct(self):
        a = Channel((0, 0), (1, 0), vc=0)
        b = Channel((0, 0), (1, 0), vc=1)
        assert a != b and b.physical == a

    def test_rejects_same_node(self):
        with pytest.raises(RoutingError):
            Channel((1, 1), (1, 1))

    def test_rejects_diagonal(self):
        with pytest.raises(RoutingError):
            Channel((0, 0), (1, 1))

    def test_accepts_wrap_link(self):
        Channel((0, 0), (4, 0))  # torus wrap along x

    def test_rejects_negative_vc(self):
        with pytest.raises(RoutingError):
            Channel((0, 0), (1, 0), vc=-1)


class TestDeadlockAnalysis:
    def test_xy_on_fault_free_mesh_is_deadlock_free(self):
        # The classic e-cube result, verified exhaustively on a 4x4.
        v = FaultModelView(Mesh2D(4, 4), np.ones((4, 4), dtype=bool))
        assert is_deadlock_free(XYRouter(v))

    def test_cdg_nodes_are_used_channels_only(self):
        v = FaultModelView(Mesh2D(3, 3), np.ones((3, 3), dtype=bool))
        g = channel_dependency_graph(XYRouter(v))
        assert all(isinstance(n, Channel) for n in g)
        assert len(g) <= 24

    def test_wall_router_on_one_channel_can_deadlock(self):
        # Detouring around a central fault region on a single virtual
        # channel creates cyclic channel dependencies — the reason the
        # fault-tolerant literature spends extra VCs.
        m = Mesh2D(5, 5)
        res = label_mesh(m, FaultSet.from_coords((5, 5), [(2, 2)]))
        v = FaultModelView.from_regions(res)
        g = channel_dependency_graph(WallRouter(v))
        assert deadlock_cycles(g), "expected cyclic dependencies around the fault"

    def test_deadlock_cycles_limit(self):
        m = Mesh2D(5, 5)
        res = label_mesh(m, FaultSet.from_coords((5, 5), [(2, 2)]))
        v = FaultModelView.from_regions(res)
        g = channel_dependency_graph(WallRouter(v))
        assert len(deadlock_cycles(g, limit=3)) <= 3

    def test_explicit_pair_list(self):
        v = FaultModelView(Mesh2D(4, 4), np.ones((4, 4), dtype=bool))
        g = channel_dependency_graph(XYRouter(v), pairs=[((0, 0), (3, 3))])
        # One XY path of 6 hops: 6 channels, 5 dependencies.
        assert len(g) == 6 and sum(map(len, g.values())) == 5


def _kahn_drains(g) -> bool:
    """Whether Kahn's topological sort removes every vertex of ``g``."""
    indegree = dict.fromkeys(g, 0)
    for succs in g.values():
        for b in succs:
            indegree[b] += 1
    ready = deque(v for v, d in indegree.items() if d == 0)
    drained = 0
    while ready:
        v = ready.popleft()
        drained += 1
        for b in g[v]:
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
    return drained == len(g)


class TestCyclesAgainstKahn:
    @pytest.mark.parametrize("router_cls", [XYRouter, WallRouter, MinimalRouter])
    @pytest.mark.parametrize("model", ["blocks", "regions"])
    def test_cycles_are_closed_and_elementary(self, router_cls, model):
        acyclic = set()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(4, 7))
            faults = uniform_random((size, size), int(rng.integers(1, 5)), rng)
            res = label_mesh(Mesh2D(size, size), faults)
            view = getattr(FaultModelView, f"from_{model}")(res)
            g = channel_dependency_graph(router_cls(view))
            cycles = deadlock_cycles(g, limit=50)
            for cycle in cycles:
                assert len(set(cycle)) == len(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in g[a]
            assert (not cycles) == _kahn_drains(g)
            acyclic.add(not cycles)
        if router_cls is XYRouter and model == "blocks":
            assert acyclic == {True}
