"""The walk loop the hop-by-hop routers share (``Router._walk``), driven
through :class:`FRingRouter`: each way a walk can end."""

import numpy as np

from repro.geometry.cells import CellSet
from repro.mesh import Mesh2D
from repro.network import BatchedNetwork, BatchedTraffic
from repro.routing import BFSRouter, DropReason, FaultModelView, FRingRouter


def block_view(shape, rects):
    """A hand-built view whose obstacles are the given ``(x0, y0, x1, y1)``
    rectangles, every cell of them disabled."""
    obstacles = []
    enabled = np.ones(shape, dtype=bool)
    for x0, y0, x1, y1 in rects:
        mask = np.zeros(shape, dtype=bool)
        mask[x0 : x1 + 1, y0 : y1 + 1] = True
        enabled &= ~mask
        obstacles.append(CellSet(mask))
    return FaultModelView(Mesh2D(*shape), enabled, tuple(obstacles))


# Two 1x1 blocks side by side: labeling keeps blocks two cells apart, a
# hand-built view need not.  Heading north from (0, 0), the packet
# plans around (0, 1), slides east, runs into (1, 1), plans around it
# nearer the destination's column, slides back west, and so on.
TWINS = block_view((3, 3), [(0, 1, 0, 1), (1, 1, 1, 1)])
TWINS_PAIR = ((0, 0), (0, 2))


class TestWalkEnds:
    def test_budget(self):
        router = FRingRouter(block_view((12, 12), []))
        router.max_hops = 5
        r = router.route((0, 0), (11, 0))
        assert r.reason is DropReason.BUDGET
        assert r.path == tuple((x, 0) for x in range(6))  # five hops

    def test_blocked_at_refused_hop(self):
        # A block spanning the whole column leaves no face to slide to.
        r = FRingRouter(block_view((12, 12), [(5, 0, 5, 11)])).route((0, 3), (11, 3))
        assert r.reason is DropReason.BLOCKED
        assert r.path == tuple((x, 3) for x in range(5))

    def test_blocked_at_repeated_cell_and_state(self):
        r = FRingRouter(TWINS).route(*TWINS_PAIR)
        assert r.reason is DropReason.BLOCKED
        # Back on (1, 0) with the plan around (0, 1) it had there.
        assert r.path == ((0, 0), (1, 0), (0, 0), (1, 0))
        # A path exists: the drop is the cycle, not a cut.
        assert BFSRouter(TWINS).route(*TWINS_PAIR).delivered

    def test_budget_is_checked_before_the_repeat(self):
        router = FRingRouter(TWINS)
        router.max_hops = 3
        r = router.route(*TWINS_PAIR)
        assert r.reason is DropReason.BUDGET
        assert r.path == ((0, 0), (1, 0), (0, 0), (1, 0))

    def test_batched_engine_ends_the_same_cycle_on_the_budget(self):
        # The kernel keeps no seen-set; the hop budget ends the cycle.
        res = BatchedNetwork(TWINS).run(BatchedTraffic.from_pairs([TWINS_PAIR]))
        assert res.drop_counts() == {"BUDGET": 1}
