"""Route-once kernels for the batched traffic engine.

A traffic campaign of a million packets cannot afford a Python call per
packet per hop.  This module routes a whole batch of packets in array
form, and it routes each packet once.

A packet's path does not depend on contention.  A hop decision is a
pure function of the packet's cell, its destination and its detour
state, and that state changes only when the packet moves: a packet
that loses its link decides the same hop again next cycle.  So
:meth:`TrafficKernel.decide` takes the endpoints of a batch and returns
every packet's whole path as a few straight segments, plus how the path
ends (:class:`Routes`); the engine in :mod:`repro.network.batched` only
arbitrates links.  Each vector step of ``decide`` moves every packet
still routing through one whole segment.  Run-length tables give, per
cell and direction, how many enabled cells lie ahead (``_steps``); the
detour kernel adds, north and south, how many disabled cells start
there (``_walls``).  So the length of a straight leg is a minimum of a
few table reads.  The tables are built by :meth:`TrafficKernel.prepare`,
on the first ``decide`` at the latest; ``decide_one`` reads none.

Two kernels are provided:

* :class:`XYKernel` — strict dimension-order routing: X first, then Y,
  drop on the first disabled hop.
* :class:`DetourKernel` — the rectangle f-ring detour: a slide/run
  state machine held as integer columns ``(on, axis, face, run,
  rect)``, with the detour plan as ``np.where`` selections.  Obstacles
  are taken as *bounding rectangles* of the view's fault regions, so
  the kernel works on both the faulty-block view and the refined
  region view (region rims lie outside every bounding rectangle, hence
  on enabled cells).

Determinism contract
--------------------
Every kernel also implements ``decide_one``: one hop of one packet in
scalar Python.  It is the oracle, and the one hop rule of its routing:
:class:`~repro.routing.xy.XYRouter` and
:class:`~repro.routing.fring.FRingRouter` walk ``decide_one`` hop by
hop from the ``idle`` state, and the scalar reference engine in
:mod:`repro.network.batched` calls it every cycle.  ``decide`` shares
its branch order and tie-breaks (preferred X hop before Y hop; the
*low* face wins a distance tie; first-match rectangle lookup) and its
bounded replan loop; property tests pin the segments of ``decide`` to
the hops of ``decide_one``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.geometry.rectangles import rect_id_grid
from repro.routing.base import FaultModelView

__all__ = [
    "ARRIVED",
    "BLOCKED",
    "BUDGET",
    "DetourKernel",
    "KERNELS",
    "Routes",
    "TrafficKernel",
    "XYKernel",
    "make_kernel",
]

_BIG = np.int64(1 << 40)

# Scalar detour state tuple layout: (on, axis, face, run, rect_id).
_IDLE = (False, 0, 0, 0, -1)

#: How a path ends: at its destination, before a hop the kernel refuses,
#: or at the hop budget.
ARRIVED, BLOCKED, BUDGET = 0, 1, 2

# Direction codes, as link ids use them: E (x+1), W (x-1), N (y+1), S (y-1).
_DX = np.array([1, -1, 0, 0], dtype=np.int64)
_DY = np.array([0, 0, 1, -1], dtype=np.int64)


@dataclass
class Routes:
    """Contention-free paths of a batch of packets, as straight segments.

    Packet ``i`` takes segments ``ptr[i]:ptr[i + 1]`` in order.  A
    segment leaves cell ``link // 4`` (flat, ``x * height + y``) in
    direction ``link % 4`` and runs ``length >= 1`` hops.  After
    ``hops[i]`` hops the path ends as ``end[i]`` says.
    """

    ptr: np.ndarray  # int64, one more than packets
    link: np.ndarray  # int64, the segment's first link
    length: np.ndarray  # int64
    hops: np.ndarray  # int64, per packet
    end: np.ndarray  # int8, per packet: ARRIVED, BLOCKED or BUDGET


def _same_ahead(a: np.ndarray) -> np.ndarray:
    """Per cell of a 2-D grid: how many cells, itself included, hold its
    value in an unbroken line toward higher index along axis 0."""
    n = a.shape[0]
    at = np.arange(n).reshape(-1, 1)
    change = np.ones(a.shape, dtype=bool)
    change[:-1] = a[1:] != a[:-1]
    last = np.minimum.accumulate(np.where(change, at, n)[::-1], axis=0)[::-1]
    return last - at + 1


class TrafficKernel:
    """Shared precomputation: enabled grid, rectangles and a per-cell
    rectangle id; run-length tables once :meth:`prepare` builds them."""

    name = "kernel"
    #: The scalar state a packet starts ``decide_one`` from.
    idle = None
    _steps = None

    def __init__(self, view: FaultModelView):
        self.view = view
        self.width, self.height = view.topology.shape
        self.enabled = np.ascontiguousarray(view.enabled, dtype=bool)
        boxes = [obs.bounding_box() for obs in view.obstacles if len(obs)]
        self.num_rects = len(boxes)
        self._x0, self._y0, self._x1, self._y1 = np.array(
            boxes, dtype=np.int32
        ).reshape(-1, 4).T
        # First-match rectangle id per cell, in the view's obstacle order.
        self.rect_grid = rect_id_grid((self.width, self.height), boxes)
        # Flat copy for the route step: ``take(cell, mode="clip")`` never
        # faults on the masked-out lanes whose hop leaves the mesh.
        self._rg_flat = self.rect_grid.ravel()
        # Bound on the transitions without a hop in one decision (greedy
        # -> plan, nested plan, detour-complete -> greedy).  A planned
        # face lies off the blocked hop's row or column, so a plan is
        # always followed by a slide: a decision takes at most three
        # iterations, and the cap only guards termination.
        self.max_replans = self.num_rects + 4

    def prepare(self) -> "TrafficKernel":
        """Build the run-length tables :meth:`decide` reads, once, and
        return the kernel.  Stepping :meth:`decide_one` needs none."""
        if self._steps is None:
            self._build_tables()
        return self

    def _meets(self, a, b):
        """Whether rectangles ``a`` and ``b`` (ids, or id arrays) share
        a cell."""
        x0, x1, y0, y1 = self._x0, self._x1, self._y0, self._y1
        return (x0[a] <= x1[b]) & (x0[b] <= x1[a]) & (y0[a] <= y1[b]) & (y0[b] <= y1[a])

    def _build_tables(self) -> tuple:
        """Run-length table ``_steps``, indexed ``direction * cells +
        cell``: the enabled cells in a line after the cell (off the mesh
        counts as disabled).  Returns the four same-state run lengths it
        is cut from, for subclasses that need more tables."""
        en = self.enabled
        h = self.height
        self._cells = self.width * h
        self._delta = np.array([h, -h, 1, -1], dtype=np.int64)
        same = (
            _same_ahead(en),
            _same_ahead(en[::-1])[::-1],
            _same_ahead(en.T).T,
            _same_ahead(en.T[::-1])[::-1].T,
        )
        open_run = [s * en for s in same]
        steps = np.zeros((4,) + en.shape, dtype=np.int64)
        steps[0, :-1] = open_run[0][1:]
        steps[1, 1:] = open_run[1][:-1]
        steps[2, :, :-1] = open_run[2][:, 1:]
        steps[3, :, 1:] = open_run[3][:, :-1]
        self._steps = steps.ravel()
        return same

    # -- route step ----------------------------------------------------------

    def decide(self, sx, sy, dx, dy, max_hops: int) -> Routes:
        """Route every packet of a batch once, without contention.

        ``sx/sy/dx/dy`` are parallel endpoint columns (enabled, distinct
        cells).  Each pass of the loop moves every packet still routing
        through one straight leg of its path (:meth:`_leg`) and retires
        the packets whose path ended: at the destination, at
        ``max_hops`` hops, or before a hop the kernel refuses.  The
        checks run in that order, as the engines run them each cycle.
        A leg never passes its destination, which the engines would
        deliver at: greedy legs and runs stop at the destination's
        coordinate at the latest, and a slide keeps to a line the
        destination is off (a detour around a blocked X hop slides in
        the packet's column, and ``x != dx`` there).
        """
        self.prepare()
        n = len(sx)
        lane = np.arange(n)
        x, y = np.array(sx, dtype=np.int64), np.array(sy, dtype=np.int64)
        bx, by = np.array(dx, dtype=np.int64), np.array(dy, dtype=np.int64)
        h = np.zeros(n, dtype=np.int64)
        st = self._start(n)
        hops = np.zeros(n, dtype=np.int64)
        end = np.full(n, BLOCKED, dtype=np.int8)
        rows, links, lengths = [], [], []
        while lane.size:
            arrived = (x == bx) & (y == by)
            out = arrived | (h >= max_hops)
            if out.any():
                end[lane[out]] = np.where(arrived[out], ARRIVED, BUDGET)
            # Ended lanes do not move: no budget left, or no distance.
            length, d, alive, st = self._leg(x, y, bx, by, max_hops - h, st)
            mv = np.flatnonzero(length)
            if mv.size:
                rows.append(lane[mv])
                links.append((x[mv] * self.height + y[mv]) * 4 + d[mv])
                lengths.append(length[mv])
                x += _DX[d] * length
                y += _DY[d] * length
                h += length
            keep = alive & ~out
            if not keep.all():
                hops[lane[~keep]] = h[~keep]
                lane, x, y, bx, by, h = (a[keep] for a in (lane, x, y, bx, by, h))
                st = tuple(c[keep] for c in st)
        ptr = np.zeros(n + 1, dtype=np.int64)
        if not rows:
            empty = np.zeros(0, dtype=np.int64)
            return Routes(ptr, empty, empty, hops, end)
        row = np.concatenate(rows)
        order = np.argsort(row, kind="stable")
        np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
        return Routes(
            ptr,
            np.concatenate(links)[order],
            np.concatenate(lengths)[order],
            hops,
            end,
        )

    def _ahead(self, d: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """Enabled cells in a line after ``cell`` in direction ``d``."""
        return self._steps.take(d * self._cells + cell)

    def _start(self, n: int) -> tuple:
        """Route-step state columns of ``n`` packets about to leave."""
        return ()

    def _leg(self, x, y, bx, by, budget, st):
        """One straight leg for every lane: ``(length, direction, alive,
        state)``.  ``length`` is 0 for a lane that does not move this
        pass; such a lane either changed state (``alive``) or is
        refused its next hop (not ``alive``).  ``budget >= 0`` caps the
        length."""
        raise NotImplementedError

    def decide_one(self, x: int, y: int, dx: int, dy: int, st):
        """One hop of one packet in scalar Python: the oracle.

        Returns ``((nx, ny) | None, new_state)``; ``None`` means the
        packet drops with ``BLOCKED``.
        """
        raise NotImplementedError


class XYKernel(TrafficKernel):
    """Dimension-order step: X toward dest, then Y; block on disabled."""

    name = "xy"

    def _leg(self, x, y, bx, by, budget, st):
        need_x = x != bx
        d = np.where(need_x, bx < x, 2 + (by < y))
        lim = np.where(need_x, np.abs(bx - x), np.abs(by - y))
        ahead = self._ahead(d, x * self.height + y)
        length = np.minimum(np.minimum(lim, ahead), budget)
        return length, d, length > 0, st

    def decide_one(self, x, y, dx, dy, st):
        if x != dx:
            nxt = (x + (1 if dx > x else -1), y)
        else:
            nxt = (x, y + (1 if dy > y else -1))
        if self.enabled[nxt]:
            return nxt, None
        return None, None


class DetourKernel(TrafficKernel):
    """Rectangle f-ring detour over packet batches."""

    name = "detour"
    idle = _IDLE

    def _build_tables(self) -> tuple:
        """Adds ``_walls``, indexed ``(direction - 2) * cells + cell``:
        the disabled cells in a north or south line from the cell,
        itself included."""
        same = super()._build_tables()
        self._walls = np.stack([s * ~self.enabled for s in same[2:]]).ravel()
        return same

    def _start(self, n: int) -> tuple:
        # (on, axis, face, run, rect, replans this hop)
        return (
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
        )

    def _plan_vec(self, ax, ay, bx, by, hx, hy, rid):
        """Vectorized :meth:`_plan_one`: returns ``(ok, axis, face, run)``.

        ``hx/hy`` is the blocked hop cell, ``rid`` the rectangle that
        contains it (all ``>= 0``).
        """
        x0, x1 = self._x0[rid], self._x1[rid]
        y0, y1 = self._y0[rid], self._y1[rid]
        axis = np.where(hy == ay, 0, 1).astype(np.int8)
        # axis == 0: run along x, faces are rows above/below the rect.
        run0 = np.where(
            (x0 <= bx) & (bx <= x1), bx, np.where(bx > ax, x1 + 1, x0 - 1)
        )
        run1 = np.where(
            (y0 <= by) & (by <= y1), by, np.where(by > ay, y1 + 1, y0 - 1)
        )
        run = np.where(axis == 0, run0, run1).astype(np.int32)
        run_limit = np.where(axis == 0, self.width, self.height)
        ok_run = (run >= 0) & (run < run_limit)
        face_lo = np.where(axis == 0, y0 - 1, x0 - 1)
        face_hi = np.where(axis == 0, y1 + 1, x1 + 1)
        face_limit = np.where(axis == 0, self.height, self.width)
        dest_cross = np.where(axis == 0, by, bx)
        ok_lo = (face_lo >= 0) & (face_lo < face_limit)
        ok_hi = (face_hi >= 0) & (face_hi < face_limit)
        d_lo = np.where(ok_lo, np.abs(dest_cross - face_lo), _BIG)
        d_hi = np.where(ok_hi, np.abs(dest_cross - face_hi), _BIG)
        # Tie -> low face, matching ``min(faces, key=...)`` list order.
        face = np.where(d_lo <= d_hi, face_lo, face_hi).astype(np.int32)
        ok = ok_run & (ok_lo | ok_hi)
        return ok, axis, face, run

    def _leg(self, x, y, bx, by, budget, st):
        on, axis, face, run, rect, replans = st
        cells = self._cells
        cell = x * self.height + y
        # Idle lanes take the greedy hop, X before Y.  A Y leg beside a
        # disabled X hop ends where the X hop opens again.
        need_x, need_y = x != bx, y != by
        dir_x = (bx < x).astype(np.int64)
        dir_y = 2 + (by < y)
        hop_x = cell + self._delta[dir_x]
        hop_y = cell + self._delta[dir_y]
        ahead_x = np.where(need_x, self._ahead(dir_x, cell), 0)
        ahead_y = np.where(need_y, self._ahead(dir_y, cell), 0)
        go_x = ahead_x > 0
        wall = self._walls.take((dir_y - 2) * cells + hop_x, mode="clip")
        ahead_y = np.where(need_x, np.minimum(ahead_y, wall), ahead_y)
        go_y = ~go_x & (ahead_y > 0)
        # Detour lanes slide to the face, then run along it to the target.
        cross = np.where(axis == 0, y, x)
        along = np.where(axis == 0, x, y)
        slide = cross != face
        dir_o = np.where(
            slide, 2 * (axis == 0) + (face < cross), 2 * (axis == 1) + (run < along)
        )
        lim_o = np.where(slide, np.abs(face - cross), np.abs(run - along))

        d = np.where(on, dir_o, np.where(go_x, dir_x, dir_y))
        lim = np.where(
            on,
            lim_o,
            np.where(go_x, np.abs(bx - x), np.where(go_y, np.abs(by - y), 0)),
        )
        ahead = np.where(on, self._ahead(d, cell), np.where(go_x, ahead_x, ahead_y))
        stuck = replans >= self.max_replans
        length = np.where(stuck, 0, np.minimum(np.minimum(lim, ahead), budget))
        alive = length > 0

        # Lanes that cannot move replan without a hop: an idle lane
        # plans around the first rectangle its greedy hops hit, a lane at
        # its run target turns idle, a run into a rectangle it does not
        # intersect plans around that one.  Anything else is refused.
        r = np.flatnonzero(~alive & ~stuck)
        if r.size:
            r_on = on[r]
            done = r_on & (lim_o[r] == 0)
            rg = self._rg_flat
            o_hop = cell[r] + self._delta[dir_o[r]]
            other = np.where(r_on & ~slide[r] & ~done, rg.take(o_hop, mode="clip"), -1)
            c = np.flatnonzero(other >= 0)
            other[c[self._meets(other[c], rect[r[c]])]] = -1
            rx = np.where(need_x[r], rg.take(hop_x[r], mode="clip"), -1)
            ry = np.where(need_y[r], rg.take(hop_y[r], mode="clip"), -1)
            use_x = rx >= 0
            hop = np.where(r_on, o_hop, np.where(use_x, hop_x[r], hop_y[r]))
            rid = np.where(r_on, other, np.where(use_x, rx, ry))
            p = np.flatnonzero(rid >= 0)
            ok, p_axis, p_face, p_run = self._plan_vec(
                x[r[p]],
                y[r[p]],
                bx[r[p]],
                by[r[p]],
                hop[p] // self.height,
                hop[p] % self.height,
                rid[p],
            )
            q = r[p[ok]]
            on[q] = True
            axis[q] = p_axis[ok]
            face[q] = p_face[ok]
            run[q] = p_run[ok]
            rect[q] = rid[p[ok]]
            on[r[done]] = False
            alive[r[done]] = True
            alive[q] = True
        replans = np.where(length > 0, 0, replans + 1)
        return length, d, alive, (on, axis, face, run, rect, replans)

    # -- scalar twin ---------------------------------------------------------

    def _plan_one(self, ax, ay, bx, by, hx, hy, rid):
        x0, x1 = int(self._x0[rid]), int(self._x1[rid])
        y0, y1 = int(self._y0[rid]), int(self._y1[rid])
        axis = 0 if hy == ay else 1
        if axis == 0:
            run = bx if x0 <= bx <= x1 else (x1 + 1 if bx > ax else x0 - 1)
            if not (0 <= run < self.width):
                return None
            faces = [f for f in (y0 - 1, y1 + 1) if 0 <= f < self.height]
            dest_cross = by
        else:
            run = by if y0 <= by <= y1 else (y1 + 1 if by > ay else y0 - 1)
            if not (0 <= run < self.height):
                return None
            faces = [f for f in (x0 - 1, x1 + 1) if 0 <= f < self.width]
            dest_cross = bx
        if not faces:
            return None
        face = min(faces, key=lambda f: abs(dest_cross - f))
        return (True, axis, face, run, int(rid))

    def decide_one(self, x, y, dx, dy, st):
        on, axis, face, run, rect = st
        for _ in range(self.max_replans):
            if not on:
                hops = []
                if x != dx:
                    hops.append((x + (1 if dx > x else -1), y))
                if y != dy:
                    hops.append((x, y + (1 if dy > y else -1)))
                blocked_hop = None
                for hop in hops:
                    if self.enabled[hop]:
                        return hop, _IDLE
                    rid = int(self.rect_grid[hop])
                    if rid >= 0 and blocked_hop is None:
                        blocked_hop = (hop, rid)
                if blocked_hop is None:
                    return None, st
                hop, rid = blocked_hop
                plan = self._plan_one(x, y, dx, dy, hop[0], hop[1], rid)
                if plan is None:
                    return None, st
                on, axis, face, run, rect = plan
                continue
            cross = y if axis == 0 else x
            if cross != face:
                sdir = 1 if face > cross else -1
                nxt = (x, y + sdir) if axis == 0 else (x + sdir, y)
                if not self.enabled[nxt]:
                    return None, st
                return nxt, (on, axis, face, run, rect)
            along = x if axis == 0 else y
            if along == run:
                on, axis, face, run, rect = _IDLE
                continue
            rdir = 1 if run > along else -1
            nxt = (x + rdir, y) if axis == 0 else (x, y + rdir)
            if self.enabled[nxt]:
                return nxt, (on, axis, face, run, rect)
            other = int(self.rect_grid[nxt])
            if other >= 0 and not self._meets(other, rect):
                plan = self._plan_one(x, y, dx, dy, nxt[0], nxt[1], other)
                if plan is not None:
                    on, axis, face, run, rect = plan
                    continue
            return None, st
        return None, st


KERNELS = {"xy": XYKernel, "detour": DetourKernel}


def make_kernel(name_or_kernel, view: FaultModelView) -> TrafficKernel:
    """Resolve ``"xy"``/``"detour"`` or pass a kernel instance through."""
    if isinstance(name_or_kernel, TrafficKernel):
        return name_or_kernel
    try:
        cls = KERNELS[name_or_kernel]
    except KeyError:
        raise RoutingError(
            f"unknown kernel {name_or_kernel!r}; expected one of {sorted(KERNELS)}"
        ) from None
    return cls(view)
