"""Array-form routing step kernels for the batched traffic engine.

:mod:`repro.routing.fring` routes one packet at a time with Python
recursion; a million-packet traffic campaign cannot afford a Python
call per packet per cycle.  This module re-expresses the hop decision
as *vectorized step kernels*: given parallel numpy columns of packet
positions, destinations and detour state, one :meth:`TrafficKernel.decide`
call produces next-hop proposals for the whole in-flight batch.

Two kernels are provided:

* :class:`XYKernel` — strict dimension-order routing (the array form of
  :class:`~repro.routing.xy.XYRouter`): X first, then Y, drop on the
  first disabled hop.
* :class:`DetourKernel` — the rectangle f-ring detour (the array form
  of :class:`~repro.routing.fring.FRingRouter`): FRing's slide/run
  state machine becomes integer columns ``(on, axis, face, run, rect)``
  and ``_plan``/``_detour_step`` become ``np.where`` selections over
  packet batches.  Obstacles are taken as *bounding rectangles* of the
  view's fault regions, so the kernel works on both the faulty-block
  view and the refined region view (region rims lie outside every
  bounding rectangle, hence on enabled cells).

Determinism contract
--------------------
Every kernel also implements ``decide_one`` — the same decision as pure
scalar Python over one packet.  Both paths share the exact branch order
and tie-breaks (preferred X hop before Y hop; the *low* face wins a
distance tie; first-match rectangle lookup), and both replace FRing's
unbounded recursion by the same bounded replan loop, so the batched
engine and the scalar reference engine in
:mod:`repro.network.batched` agree bit-for-bit.  ``decide_one`` also
runs inside the batched path: :meth:`DetourKernel.decide` settles most
lanes in one full-width greedy pass and hands a small leftover set to
``decide_one`` lane by lane, keeping the vector replan loop for large
leftover sets only.

State is *committed on movement only*: ``decide`` returns a sparse
change-set of detour columns and the engine writes it back just for
packets that actually moved this cycle.  A stalled packet therefore
recomputes an identical decision next cycle from unchanged stored
state, which keeps runs reproducible under any contention
interleaving.  Rows whose state did not transition are absent from the
change-set, so the commit cost scales with detour activity, not with
the in-flight batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.geometry.rectangles import bounding_rect
from repro.routing.base import FaultModelView

__all__ = [
    "DetourKernel",
    "DetourState",
    "KERNELS",
    "TrafficKernel",
    "XYKernel",
    "make_kernel",
]

_BIG = np.int64(1 << 40)

# Scalar detour state tuple layout: (on, axis, face, run, rect_id).
_IDLE = (False, 0, 0, 0, -1)

#: The sparse state update ``decide`` hands back: subset row indices
#: plus the new (on, axis, face, run, rect) values for those rows.
ChangeSet = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


@dataclass
class DetourState:
    """Detour columns for *all* packets of a run (length ``n``)."""

    on: np.ndarray  # bool — detour active?
    axis: np.ndarray  # int8 — blocked travel dimension (0 = x, 1 = y)
    face: np.ndarray  # int32 — cross coordinate of the rim being used
    run: np.ndarray  # int32 — run target along ``axis``
    rect: np.ndarray  # int32 — id of the rectangle being rounded (-1 idle)

    @classmethod
    def idle(cls, n: int) -> "DetourState":
        return cls(
            on=np.zeros(n, dtype=bool),
            axis=np.zeros(n, dtype=np.int8),
            face=np.zeros(n, dtype=np.int32),
            run=np.zeros(n, dtype=np.int32),
            rect=np.full(n, -1, dtype=np.int32),
        )

    def select(self, idx) -> "DetourState":
        """Lanes reordered/filtered by an index array or boolean mask."""
        return DetourState(
            on=self.on[idx],
            axis=self.axis[idx],
            face=self.face[idx],
            run=self.run[idx],
            rect=self.rect[idx],
        )

    def append_idle(self, k: int) -> "DetourState":
        """These lanes plus ``k`` fresh idle lanes."""
        tail = DetourState.idle(k)
        return DetourState(
            on=np.concatenate((self.on, tail.on)),
            axis=np.concatenate((self.axis, tail.axis)),
            face=np.concatenate((self.face, tail.face)),
            run=np.concatenate((self.run, tail.run)),
            rect=np.concatenate((self.rect, tail.rect)),
        )


class TrafficKernel:
    """Shared precomputation: enabled grid, rectangle ids, intersections."""

    name = "kernel"
    stateful = False

    def __init__(self, view: FaultModelView):
        self.view = view
        self.width, self.height = view.topology.shape
        self.enabled = np.ascontiguousarray(view.enabled, dtype=bool)
        rects = [bounding_rect(obs) for obs in view.obstacles if len(obs)]
        self.num_rects = len(rects)
        self._x0 = np.array([r.x0 for r in rects], dtype=np.int32)
        self._x1 = np.array([r.x1 for r in rects], dtype=np.int32)
        self._y0 = np.array([r.y0 for r in rects], dtype=np.int32)
        self._y1 = np.array([r.y1 for r in rects], dtype=np.int32)
        # First-match rectangle id per cell (mirrors FRing._rect_containing):
        # paint in reverse order so earlier obstacles win overlaps.
        self.rect_grid = np.full((self.width, self.height), -1, dtype=np.int32)
        for i in range(self.num_rects - 1, -1, -1):
            self.rect_grid[
                self._x0[i] : self._x1[i] + 1, self._y0[i] : self._y1[i] + 1
            ] = i
        # Flat copies for the hot path: ``take(ix * h + iy, mode="clip")``
        # never faults on the masked-out rows that sit at the mesh edge
        # (their flat index is clamped; the gathered value is unused).
        self._en_flat = self.enabled.ravel()
        self._rg_flat = np.ascontiguousarray(self.rect_grid).ravel()
        if self.num_rects:
            no_x = (self._x1[:, None] < self._x0[None, :]) | (
                self._x1[None, :] < self._x0[:, None]
            )
            no_y = (self._y1[:, None] < self._y0[None, :]) | (
                self._y1[None, :] < self._y0[:, None]
            )
            self.isect = ~(no_x | no_y)
        else:
            self.isect = np.zeros((0, 0), dtype=bool)
        # Bounded replacement for FRing's recursion: one iteration per
        # replan (greedy -> plan, nested plan, detour-complete -> greedy);
        # a chain can visit each rectangle at most once per decision.
        self.max_replans = self.num_rects + 4

    # -- state management ----------------------------------------------------

    def new_state(self, n: int) -> Optional[DetourState]:
        """Per-run detour columns; ``None`` for stateless kernels."""
        return None

    def initial_state_one(self):
        """Scalar twin of :meth:`new_state` (one packet's tuple)."""
        return None

    # -- decision API --------------------------------------------------------

    def decide(
        self,
        px: np.ndarray,
        py: np.ndarray,
        dx: np.ndarray,
        dy: np.ndarray,
        state: Optional[DetourState],
    ):
        """Vector decision for one batch of in-flight lanes.

        ``px/py/dx/dy`` and the ``state`` lanes are parallel columns of
        equal length; ``state`` is read-only here.  Returns
        ``(nx, ny, blocked, changes)``: proposed next cells (valid
        where ``~blocked``), lanes that must drop with ``BLOCKED``, and
        the sparse :data:`ChangeSet` of detour-state transitions to
        commit for lanes that move (``None`` when no state changed).
        Lanes already at their destination (the engine's tombstoned
        dead lanes) come out ``blocked``; the engine ignores them.
        """
        raise NotImplementedError

    def decide_one(self, x: int, y: int, dx: int, dy: int, st):
        """Scalar twin of :meth:`decide` for one packet.

        Returns ``((nx, ny) | None, new_state)``; ``None`` means the
        packet drops with ``BLOCKED``.
        """
        raise NotImplementedError


class XYKernel(TrafficKernel):
    """Dimension-order step: X toward dest, then Y; block on disabled."""

    name = "xy"
    stateful = False

    def decide(self, px, py, dx, dy, state):
        need_x = px != dx
        step_x = ((dx > px) << 1) - 1
        step_y = ((dy > py) << 1) - 1
        nx = np.where(need_x, px + step_x, px)
        ny = np.where(need_x, py, py + step_y)
        ok = self._en_flat.take(nx * self.height + ny, mode="clip")
        # A lane already at its destination "proposes" staying put; the
        # self-link it claims is unique, so it never contends, and the
        # engine retires or ignores it.
        at_dest = ~need_x & (py == dy)
        return nx, ny, ~ok | at_dest, None

    def decide_one(self, x, y, dx, dy, st):
        if x != dx:
            nxt = (x + (1 if dx > x else -1), y)
        else:
            nxt = (x, y + (1 if dy > y else -1))
        if self.enabled[nxt]:
            return nxt, None
        return None, None


class DetourKernel(TrafficKernel):
    """Rectangle f-ring detour step over packet batches."""

    name = "detour"
    stateful = True

    # Leftover lanes (after the full-width greedy pass) up to this count
    # go through ``decide_one`` one by one (~3.5 us a lane); more run the
    # vector replan loop, whose numpy calls per pass cost about the same
    # at any small width.  Measured crossover: docs/algorithms.md §5.8.
    _SCALAR_MAX = 96

    def new_state(self, n: int) -> DetourState:
        return DetourState.idle(n)

    def initial_state_one(self):
        return _IDLE

    # -- vector path ---------------------------------------------------------

    def _plan_vec(self, ax, ay, bx, by, hx, hy, rid):
        """Vectorized ``FRing._plan``: returns ``(ok, axis, face, run)``.

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

    def decide(self, px, py, dx, dy, state: DetourState):
        hgt = self.height

        # Fast path, full width and gather-free: the preferred greedy
        # hop for every packet at once (garbage on detour rows, masked
        # out below).  This settles the vast majority of the batch; the
        # leftovers go lane by lane through ``decide_one`` or, when
        # there are many, through the index-based replan loop.
        step_x = ((dx > px) << 1) - 1  # +-1, int8-promoted
        step_y = ((dy > py) << 1) - 1
        hx0 = px + step_x
        hy0 = py + step_y
        ix0 = hx0 * hgt + py  # flat index of the preferred X hop
        iy0 = px * hgt + hy0
        need_x0 = px != dx
        need_y0 = py != dy
        en_x0 = need_x0 & self._en_flat.take(ix0, mode="clip")
        en_y0 = need_y0 & self._en_flat.take(iy0, mode="clip")
        off = ~state.on
        take_x0 = en_x0 & off
        take_y0 = en_y0 & ~en_x0 & off
        nx = np.where(take_x0, hx0, px)
        ny = np.where(take_y0, hy0, py)
        # Lanes at their destination (the engine's tombstones) settle
        # here too: they have nothing to route and come out blocked.
        blocked = ~(need_x0 | need_y0)

        work = np.flatnonzero(~(take_x0 | take_y0 | blocked))
        if work.size <= self._SCALAR_MAX:
            return self._decide_lanes(work, px, py, dx, dy, state, nx, ny, blocked)

        changed = np.zeros(px.shape[0], dtype=bool)
        # Mutable local copies of the detour lanes (commit-on-move: the
        # caller's ``state`` must stay untouched until winners land).
        on_l = state.on.copy()
        axis_l = state.axis.copy()
        face_l = state.face.copy()
        run_l = state.run.copy()
        rect_l = state.rect.copy()

        for _ in range(self.max_replans):
            if work.size == 0:
                break
            w_on = on_l[work]
            stay: List[np.ndarray] = []

            greedy = work[~w_on]
            if greedy.size:
                # Hop candidates and enables were computed full-width in
                # the fast path and stay valid (positions are fixed for
                # the whole decision) — gather, don't recompute.
                ax, ay = px[greedy], py[greedy]
                bx, by = dx[greedy], dy[greedy]
                need_x = need_x0[greedy]
                need_y = need_y0[greedy]
                hx = hx0[greedy]
                hy = hy0[greedy]
                en_x = en_x0[greedy]
                take_x = en_x
                take_y = en_y0[greedy] & ~en_x
                moved = take_x | take_y
                rows = greedy[moved]
                nx[rows] = np.where(take_x[moved], hx[moved], ax[moved])
                ny[rows] = np.where(take_x[moved], ay[moved], hy[moved])

                rest = ~moved
                if rest.any():
                    rx = np.where(
                        need_x & rest,
                        self._rg_flat.take(ix0[greedy], mode="clip"),
                        -1,
                    )
                    ry = np.where(
                        need_y & rest,
                        self._rg_flat.take(iy0[greedy], mode="clip"),
                        -1,
                    )
                    use_x = rx >= 0
                    use_y = (ry >= 0) & ~use_x
                    hit = use_x | use_y
                    blocked[greedy[rest & ~hit]] = True
                    if hit.any():
                        bhx = np.where(use_x[hit], hx[hit], ax[hit])
                        bhy = np.where(use_x[hit], ay[hit], hy[hit])
                        rid = np.where(use_x[hit], rx[hit], ry[hit])
                        ok, axis, face, run = self._plan_vec(
                            ax[hit], ay[hit], bx[hit], by[hit], bhx, bhy, rid
                        )
                        hit_rows = greedy[hit]
                        blocked[hit_rows[~ok]] = True
                        planned = hit_rows[ok]
                        on_l[planned] = True
                        axis_l[planned] = axis[ok]
                        face_l[planned] = face[ok]
                        run_l[planned] = run[ok]
                        rect_l[planned] = rid[ok]
                        changed[planned] = True
                        stay.append(planned)

            detour = work[w_on]
            if detour.size:
                ax, ay = px[detour], py[detour]
                bx, by = dx[detour], dy[detour]
                d_axis = axis_l[detour]
                d_face = face_l[detour]
                d_run = run_l[detour]
                d_rect = rect_l[detour]
                cross = np.where(d_axis == 0, ay, ax)
                sliding = cross != d_face
                sdir = np.where(d_face > cross, 1, -1).astype(np.int32)
                sx = np.where(d_axis == 0, ax, ax + sdir)
                sy = np.where(d_axis == 0, ay + sdir, ay)
                slide_en = self._en_flat.take(sx * hgt + sy, mode="clip")
                slide_ok = sliding & slide_en
                rows = detour[slide_ok]
                nx[rows] = sx[slide_ok]
                ny[rows] = sy[slide_ok]
                blocked[detour[sliding & ~slide_en]] = True

                running = ~sliding
                along = np.where(d_axis == 0, ax, ay)
                done = running & (along == d_run)
                done_rows = detour[done]
                on_l[done_rows] = False
                changed[done_rows] = True
                stay.append(done_rows)  # greedy resumes next pass

                go = running & ~done
                if go.any():
                    rdir = np.where(d_run > along, 1, -1).astype(np.int32)
                    gx = np.where(d_axis == 0, ax + rdir, ax)
                    gy = np.where(d_axis == 0, ay, ay + rdir)
                    run_ok = go & self._en_flat.take(gx * hgt + gy, mode="clip")
                    rows = detour[run_ok]
                    nx[rows] = gx[run_ok]
                    ny[rows] = gy[run_ok]

                    collide = go & ~run_ok
                    if collide.any():
                        other = self._rg_flat.take(gx * hgt + gy, mode="clip")
                        o_safe = np.where(other >= 0, other, 0)
                        r_safe = np.where(d_rect >= 0, d_rect, 0)
                        chain = (
                            collide
                            & (other >= 0)
                            & ~self.isect[o_safe, r_safe]
                        )
                        blocked[detour[collide & ~chain]] = True
                        if chain.any():
                            ok, axis, face, run = self._plan_vec(
                                ax[chain],
                                ay[chain],
                                bx[chain],
                                by[chain],
                                gx[chain],
                                gy[chain],
                                other[chain],
                            )
                            chain_rows = detour[chain]
                            blocked[chain_rows[~ok]] = True
                            nested = chain_rows[ok]
                            axis_l[nested] = axis[ok]
                            face_l[nested] = face[ok]
                            run_l[nested] = run[ok]
                            rect_l[nested] = other[chain][ok]
                            changed[nested] = True
                            stay.append(nested)

            work = (
                np.concatenate(stay) if stay else np.empty(0, dtype=np.int64)
            )
        # Replan budget exhausted without a move proposal: honest drop.
        blocked[work] = True

        rows = np.flatnonzero(changed)
        changes = None
        if rows.size:
            changes = (
                rows,
                on_l[rows],
                axis_l[rows],
                face_l[rows],
                run_l[rows],
                rect_l[rows],
            )
        return nx, ny, blocked, changes

    def _decide_lanes(self, work, px, py, dx, dy, state, nx, ny, blocked):
        """Resolve the leftover lanes ``work`` one by one via ``decide_one``.

        Fills ``nx/ny/blocked`` in place and returns the :meth:`decide`
        tuple; the change-set holds only lanes whose state changed.
        """
        if work.size == 0:
            return nx, ny, blocked, None
        states = zip(
            state.on[work].tolist(),
            state.axis[work].tolist(),
            state.face[work].tolist(),
            state.run[work].tolist(),
            state.rect[work].tolist(),
        )
        cols = zip(
            work.tolist(),
            px[work].tolist(),
            py[work].tolist(),
            dx[work].tolist(),
            dy[work].tolist(),
            states,
        )
        moved, hop_x, hop_y, stuck = [], [], [], []
        changed, new_states = [], []
        decide_one = self.decide_one
        for lane, x, y, bx, by, st in cols:
            nxt, new = decide_one(x, y, bx, by, st)
            if nxt is None:
                stuck.append(lane)
                continue
            moved.append(lane)
            hop_x.append(nxt[0])
            hop_y.append(nxt[1])
            if new != st:
                changed.append(lane)
                new_states.append(new)
        if moved:
            nx[moved] = hop_x
            ny[moved] = hop_y
        blocked[stuck] = True
        changes = None
        if changed:
            on, axis, face, run, rect = zip(*new_states)
            changes = (
                np.array(changed, dtype=np.int64),
                np.array(on, dtype=bool),
                np.array(axis, dtype=np.int8),
                np.array(face, dtype=np.int32),
                np.array(run, dtype=np.int32),
                np.array(rect, dtype=np.int32),
            )
        return nx, ny, blocked, changes

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
            if other >= 0 and not self.isect[other, rect]:
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
