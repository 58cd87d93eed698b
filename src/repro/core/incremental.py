"""Incremental relabeling: absorb fault deltas without relabeling the mesh.

The batch pipeline answers "what do the labels look like under fault set
F" by running both fixpoints over the whole grid.  This module answers
the *online* question — F changes by a handful of cells, what do the
labels look like now? — in work proportional to the affected area, not
the mesh.  Three structural facts make that possible:

* **Phase 1 is monotone in the fault set**, so after an injection the
  old unsafe labels are a valid under-approximation of the new fixpoint.
  The update re-asserts the changed cells and resumes the fixpoint from
  that plane: a per-cell frontier wave outward from them for small
  deltas, the packed kernel (:func:`~repro.core.safety.unsafe_fixpoint`)
  with the plane as its mask for batches.  The per-round flip sets equal
  the dense warm-started schedule's, so round counts are exact.

* **Phase 2 is per-block independent.**  Faulty blocks are maximal
  4-connected unsafe components, so every neighbour outside a block is
  safe — hence enabled — which is exactly the ghost-ring boundary
  condition.  The enable fixpoint restricted to one block is therefore a
  pure function of the block's extent and the *relative* offsets of its
  faults, independent of position and of every other block.  An update
  only recomputes the blocks whose membership or fault set changed, and
  a :class:`BlockEnableCache` keyed by ``(extent, fault offsets)``
  serves repeated shapes without touching the solver at all.

* **The unsafe fixpoint is a disjoint union of per-block closures**:
  every unsafe cell's justification chain stays inside its final block.
  Repairing a fault therefore only invalidates the block that contained
  it — the *bounded un-label wave* clears that block's cells, re-asserts
  its surviving faults, and re-runs the forward rule from them.  The
  wave cannot overshoot (the monotone rule evaluated on a state below
  the new fixpoint only fires cells of the new fixpoint) and cannot
  escape the cleared extent, so repair is as local as injection.

:class:`IncrementalLabeling` maintains the three label planes, a block
registry, and the cache under arbitrary inject/repair sequences; a
property suite pins every intermediate state bit-for-bit to the
from-scratch fixpoint.  :class:`~repro.service.LabelingService` wraps
this engine for long-lived serving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.enabling import enabled_fixpoint
from repro.core.pipeline import LabelingResult, assemble_result
from repro.core.safety import unsafe_fixpoint
from repro.core.status import LabelGrid, NodeStatus, SafetyDefinition
from repro.errors import FaultModelError, GeometryError
from repro.faults.faultset import FaultSet
from repro.mesh.topology import Mesh2D, Topology
from repro.obs.telemetry import Telemetry
from repro.types import BoolGrid, Coord

__all__ = [
    "BlockEnableCache",
    "DeltaReport",
    "IncrementalLabeling",
    "canonical_delta",
]

#: Seed count from which the phase-1 wave switches from the per-cell
#: Python frontier to the packed kernel.
_WAVE_VECTOR_MIN = 64

#: Cache key: (extent_x, extent_y, sorted flat fault offsets).
CacheKey = Tuple[int, int, Tuple[int, ...]]


class BlockEnableCache:
    """LRU cache of per-block enable solutions.

    Blocks are position-independent for phase 2 (module docstring), so
    the key is ``(extent_x, extent_y, offsets)`` where ``offsets`` are
    the faults' flat indices relative to the block origin.  The value is
    the solved enabled submask (read-only) and its round count.  One
    cache may be shared by several engines — the solution depends only
    on the key, never on the topology or safety definition.
    """

    __slots__ = ("_entries", "capacity", "hits", "misses")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self._entries: "OrderedDict[CacheKey, Tuple[BoolGrid, int]]" = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> Optional[Tuple[BoolGrid, int]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, value: Tuple[BoolGrid, int]) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}


def canonical_delta(
    inject: Iterable[Coord] = (),
    repair: Iterable[Coord] = (),
) -> Tuple[Tuple[Coord, ...], Tuple[Coord, ...]]:
    """The canonical (deduplicated, sorted, int-coerced) form of a delta.

    This is the serialization contract between the engine, the service's
    write-ahead log, and recovery replay: two deltas describing the same
    fault-set change always canonicalize to identical tuples, so WAL
    records compare and replay deterministically regardless of the order
    a caller listed the coordinates in.
    """
    inj = tuple(sorted({(int(c[0]), int(c[1])) for c in inject}))
    rep = tuple(sorted({(int(c[0]), int(c[1])) for c in repair}))
    return inj, rep


@dataclass
class DeltaReport:
    """What one incremental update cost and changed.

    Round counts reflect the *localized* work actually done: phase 1
    counts the wave's changing rounds, phase 2 the maximum rounds any
    recomputed block needed (cache hits cost zero).  Not frozen — at
    100k updates/sec the per-field ``object.__setattr__`` of a frozen
    dataclass is measurable — but treated as immutable by convention.
    """

    injected: Tuple[Coord, ...]   # faults actually added (already-faulty skipped)
    repaired: Tuple[Coord, ...]   # faults actually removed (non-faulty skipped)
    rounds_phase1: int
    rounds_phase2: int
    newly_unsafe: int             # nonfaulty nodes that flipped safe -> unsafe
    newly_safe: int               # nodes that flipped unsafe -> safe (repair)
    newly_disabled: int           # nonfaulty nodes that lost enabled status
    newly_activated: int          # nonfaulty nodes that gained enabled status
    blocks_changed: int           # blocks re-formed by this update
    cache_hits: int               # per-block solves served from the cache
    cache_misses: int             # per-block solves actually computed
    resynced: bool = False        # torus-only: fell back to a global phase 2
    version: int = 0              # engine version after this update applied

    @property
    def effective(self) -> bool:
        """Whether this update changed the fault set at all."""
        return bool(self.injected or self.repaired)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready view (coordinates sorted, plain ints).

        The service's wire responses and the write-ahead log both use
        this shape, so a replayed delta serializes bit-identically to
        the one originally acknowledged.
        """
        inj, rep = canonical_delta(self.injected, self.repaired)
        return {
            "injected": [list(c) for c in inj],
            "repaired": [list(c) for c in rep],
            "rounds_phase1": self.rounds_phase1,
            "rounds_phase2": self.rounds_phase2,
            "newly_unsafe": self.newly_unsafe,
            "newly_safe": self.newly_safe,
            "newly_disabled": self.newly_disabled,
            "newly_activated": self.newly_activated,
            "blocks_changed": self.blocks_changed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resynced": self.resynced,
        }


class _Block:
    """One registered faulty block.

    Rectangular blocks store origin and extent (cells are implied);
    irregular blocks (torus components wrapping a full dimension, where
    the planar sub-solve is unsound) store their cells explicitly and
    force a global phase-2 resync when touched.
    """

    __slots__ = ("x0", "y0", "ex", "ey", "offsets", "cells", "faults")

    def __init__(
        self,
        x0: int,
        y0: int,
        ex: int,
        ey: int,
        offsets: Tuple[int, ...],
        cells: Optional[Tuple[Coord, ...]],
        faults: Tuple[Coord, ...],
    ):
        self.x0 = x0
        self.y0 = y0
        self.ex = ex
        self.ey = ey
        self.offsets = offsets
        self.cells = cells
        self.faults = faults

    @property
    def rectangular(self) -> bool:
        return self.cells is None

    @property
    def num_cells(self) -> int:
        return self.ex * self.ey if self.cells is None else len(self.cells)


def _circular_extent(vals: Sequence[int], modulus: int) -> Optional[Tuple[int, int]]:
    """Start and length of the shortest circular arc covering ``vals``.

    ``vals`` must be sorted and unique.  Returns ``None`` when the arc
    is the whole circle (the component wraps all the way around).
    """
    if len(vals) == modulus:
        return None
    best_gap = vals[0] + modulus - vals[-1]
    start = vals[0]
    for i in range(1, len(vals)):
        gap = vals[i] - vals[i - 1]
        if gap > best_gap:
            best_gap = gap
            start = vals[i]
    extent = modulus - best_gap + 1
    if extent >= modulus:
        return None
    return start, extent


class IncrementalLabeling:
    """Continuously maintained labels under inject *and* repair deltas.

    Parameters
    ----------
    topology:
        Mesh or torus.  All views are in machine coordinates; the
        geometric views (:meth:`blocks_view` / :meth:`regions_view` /
        :meth:`snapshot`) unwrap tori exactly like
        :func:`~repro.core.pipeline.label_mesh`.
    definition:
        Phase-1 unsafe rule.
    cache:
        A :class:`BlockEnableCache` to (re)use, or ``None`` for a fresh
        private one (the cache-sharing property tests pass one in).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; the per-cell
        phase-1 wave observes its per-round frontier size into the
        ``frontier_active_cells`` histogram.  Batch deltas run the packed
        kernel and observe nothing, as one-shot labeling does.
    """

    def __init__(
        self,
        topology: Topology,
        definition: SafetyDefinition = SafetyDefinition.DEF_2B,
        cache: Optional[BlockEnableCache] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self._topology = topology
        self._definition = definition
        self._W, self._H = topology.shape
        self._wraps = topology.wraps
        self._faulty: BoolGrid = np.zeros(topology.shape, dtype=bool)
        self._unsafe: BoolGrid = np.zeros(topology.shape, dtype=bool)
        self._enabled: BoolGrid = np.ones(topology.shape, dtype=bool)
        self._block_id = np.full(topology.shape, -1, dtype=np.int32)
        self._blocks: Dict[int, _Block] = {}
        self._next_id = 0
        self.cache = cache if cache is not None else BlockEnableCache()
        self._frontier_meter = (
            None
            if telemetry is None or telemetry.metrics is None
            else telemetry.histogram("frontier_active_cells")
        )
        self._version = 0
        self._total_rounds1 = 0
        self._total_rounds2 = 0
        self._num_updates = 0
        self._geom_cache: Optional[Tuple[int, LabelingResult]] = None

    # -- views ----------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def definition(self) -> SafetyDefinition:
        return self._definition

    @property
    def version(self) -> int:
        """Bumped on every update that changed anything."""
        return self._version

    def set_version(self, version: int) -> None:
        """Rebase the applied-version counter (crash-recovery only).

        A recovered engine is rebuilt by replaying a snapshot plus the
        WAL tail; the snapshot load is a single bulk injection, so the
        counter must be rebased to the snapshot's recorded version before
        the tail replays — each replayed record then lands on exactly the
        version it was originally acknowledged at, which
        :mod:`repro.service.recovery` asserts record by record.
        """
        if version < self._version:
            raise ValueError(
                f"cannot rebase version backwards: {self._version} -> {version}"
            )
        self._version = int(version)

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def num_faults(self) -> int:
        return int(self._faulty.sum())

    @property
    def total_rounds_phase1(self) -> int:
        return self._total_rounds1

    @property
    def total_rounds_phase2(self) -> int:
        return self._total_rounds2

    @property
    def num_updates(self) -> int:
        return self._num_updates

    @property
    def faults(self) -> FaultSet:
        return FaultSet.from_mask(self._faulty.copy())

    @property
    def labels(self) -> LabelGrid:
        return LabelGrid(
            faulty=self._faulty.copy(),
            unsafe=self._unsafe.copy(),
            enabled=self._enabled.copy(),
        )

    def is_enabled(self, c: Coord) -> bool:
        """Whether node ``c`` currently participates in routing.

        Pure array read — never touches geometry, so queries on blocks
        untouched by recent updates cost nothing beyond the lookup.
        """
        self._topology.check(c)
        return bool(self._enabled[c[0], c[1]])

    def is_faulty(self, c: Coord) -> bool:
        self._topology.check(c)
        return bool(self._faulty[c[0], c[1]])

    def status_of(self, c: Coord) -> NodeStatus:
        """Composite status of one node (cheap scalar reads, no copies)."""
        self._topology.check(c)
        x, y = c
        if self._faulty[x, y]:
            return NodeStatus.FAULTY
        if not self._unsafe[x, y]:
            return NodeStatus.SAFE_ENABLED
        return (
            NodeStatus.UNSAFE_ENABLED
            if self._enabled[x, y]
            else NodeStatus.UNSAFE_DISABLED
        )

    def block_summaries(self) -> List[Dict[str, object]]:
        """Compact registry view: one dict per block, sorted by origin.

        Served straight from the registry — no geometric extraction.
        """
        out = []
        for blk in self._blocks.values():
            out.append(
                {
                    "origin": [blk.x0, blk.y0],
                    "extent": [blk.ex, blk.ey] if blk.rectangular else None,
                    "cells": blk.num_cells,
                    "faults": len(blk.faults),
                }
            )
        out.sort(key=lambda d: tuple(d["origin"]))  # type: ignore[arg-type]
        return out

    # -- updates --------------------------------------------------------------

    def inject(self, coords: FaultSet | Iterable[Coord]) -> DeltaReport:
        """Add faults; see :meth:`apply`."""
        return self.apply(inject=list(coords))

    def repair(self, coords: FaultSet | Iterable[Coord]) -> DeltaReport:
        """Remove faults; see :meth:`apply`."""
        return self.apply(repair=list(coords))

    def apply(
        self,
        inject: Iterable[Coord] = (),
        repair: Iterable[Coord] = (),
    ) -> DeltaReport:
        """Absorb one fault-set delta and restore both label fixpoints.

        Injecting an already-faulty node or repairing a non-faulty node
        is a no-op for that node; a coordinate in both lists is an
        error.  The resulting planes are bit-for-bit the from-scratch
        fixpoint of the new fault set (property tested).
        """
        # The dominant online workload is a single-cell delta whose
        # neighbourhood is trivial (an isolated fault appearing or
        # healing).  Those skip the generic machinery entirely; anything
        # non-trivial falls through to the full path below.
        if isinstance(inject, (list, tuple)) and isinstance(repair, (list, tuple)):
            if len(inject) == 1 and not repair:
                report = self._try_inject_one(inject[0])
                if report is not None:
                    return report
            elif len(repair) == 1 and not inject:
                report = self._try_repair_one(repair[0])
                if report is not None:
                    return report
        inj = list(dict.fromkeys((int(c[0]), int(c[1])) for c in inject))
        rep = list(dict.fromkeys((int(c[0]), int(c[1])) for c in repair))
        check = self._topology.check
        for c in inj:
            check(c)
        for c in rep:
            check(c)
        overlap = set(inj) & set(rep)
        if overlap:
            raise FaultModelError(
                f"cannot inject and repair the same nodes in one update: "
                f"{sorted(overlap)}"
            )
        faulty = self._faulty
        injected = [c for c in inj if not faulty[c]]
        repaired = [c for c in rep if faulty[c]]
        if not injected and not repaired:
            return DeltaReport(
                (), (), 0, 0, 0, 0, 0, 0, 0, 0, 0, version=self._version
            )
        hits0, misses0 = self.cache.hits, self.cache.misses

        unsafe = self._unsafe
        bid_grid = self._block_id
        prior_unsafe: Dict[Coord, bool] = {}
        newly_disabled = 0
        newly_activated = 0

        # --- un-label: clear every block that lost a fault -------------------
        reseed: List[Coord] = []
        cleared_cells: List[Coord] = []
        cleared_ids: Set[int] = set()
        for c in repaired:
            faulty[c] = False
            cleared_ids.add(int(bid_grid[c]))
        for bid in cleared_ids:
            blk = self._blocks.pop(bid)
            for c in self._block_cells(blk):
                prior_unsafe.setdefault(c, True)
                cleared_cells.append(c)
                unsafe[c] = False
                bid_grid[c] = -1
                if faulty[c]:
                    reseed.append(c)

        # --- mark the delta and propagate the monotone wave ------------------
        affected_ids: Set[int] = set()
        seeds: List[Coord] = []
        for c in injected:
            faulty[c] = True
            if unsafe[c]:
                affected_ids.add(int(bid_grid[c]))
            else:
                prior_unsafe.setdefault(c, False)
                unsafe[c] = True
                seeds.append(c)
        for c in reseed:
            unsafe[c] = True
            seeds.append(c)
        rounds1, grown = self._wave_up(seeds)
        unsafe = self._unsafe  # the vectorized wave rebinds the plane
        for c in grown:
            prior_unsafe.setdefault(c, False)

        # --- find every block whose membership or fault set changed ----------
        up_set: Set[Coord] = set(seeds)
        up_set.update(grown)
        nbrs = self._nbrs
        for cell in up_set:
            for nb in nbrs(*cell):
                b = int(bid_grid[nb])
                if b >= 0:
                    affected_ids.add(b)
        area: Set[Coord] = set(up_set)
        for bid in affected_ids:
            blk = self._blocks.pop(bid)
            for c in self._block_cells(blk):
                bid_grid[c] = -1
                area.add(c)

        # --- re-form components and localize phase 2 -------------------------
        new_blocks, irregular = self._flood_register(area)
        rounds2 = 0
        resynced = False
        if irregular:
            nd, na, rounds2 = self._resync_enabled()
            newly_disabled += nd
            newly_activated += na
            resynced = True
        else:
            for c in cleared_cells:
                if not unsafe[c] and not self._enabled[c]:
                    self._enabled[c] = True
                    newly_activated += 1
            for blk in new_blocks:
                nd, na, r2 = self._enable_block(blk)
                newly_disabled += nd
                newly_activated += na
                if r2 > rounds2:
                    rounds2 = r2

        newly_unsafe = 0
        newly_safe = 0
        for c, prior in prior_unsafe.items():
            cur = bool(unsafe[c])
            if cur and not prior and not faulty[c]:
                newly_unsafe += 1
            elif prior and not cur:
                newly_safe += 1

        self._version += 1
        self._total_rounds1 += rounds1
        self._total_rounds2 += rounds2
        self._num_updates += 1
        return DeltaReport(
            injected=tuple(injected),
            repaired=tuple(repaired),
            rounds_phase1=rounds1,
            rounds_phase2=rounds2,
            newly_unsafe=newly_unsafe,
            newly_safe=newly_safe,
            newly_disabled=newly_disabled,
            newly_activated=newly_activated,
            blocks_changed=len(new_blocks),
            cache_hits=self.cache.hits - hits0,
            cache_misses=self.cache.misses - misses0,
            resynced=resynced,
            version=self._version,
        )

    # -- single-cell fast paths -------------------------------------------------

    def _try_inject_one(self, c: Coord) -> Optional[DeltaReport]:
        """Inject one isolated fault without the generic machinery.

        Applies only when no cell within distance 2 is unsafe.  Every
        rule evaluation after the injection sees at most one unsafe
        neighbour (the new fault itself), so nothing fires under either
        definition, no block is adjacent, and the update is exactly
        "register a 1x1 block".  Border cells and anything non-trivial
        return ``None`` to fall back to the generic path.
        """
        x, y = int(c[0]), int(c[1])
        W, H = self._W, self._H
        if not (0 <= x < W and 0 <= y < H):
            self._topology.check((x, y))  # raises TopologyError
        faulty = self._faulty
        if faulty[x, y]:
            return DeltaReport(
                (), (), 0, 0, 0, 0, 0, 0, 0, 0, 0, version=self._version
            )
        if not (2 <= x < W - 2 and 2 <= y < H - 2):
            return None
        unsafe = self._unsafe
        if unsafe[x - 2 : x + 3, y - 2 : y + 3].any():
            return None
        faulty[x, y] = True
        unsafe[x, y] = True
        self._enabled[x, y] = False
        bid = self._next_id
        self._next_id = bid + 1
        self._block_id[x, y] = bid
        self._blocks[bid] = _Block(x, y, 1, 1, (0,), None, ((x, y),))
        self.cache.hits += 1  # the 1x1 constant, as in _enable_block
        self._version += 1
        self._num_updates += 1
        return DeltaReport(
            ((x, y),), (), 0, 0, 0, 0, 0, 0, 1, 1, 0, version=self._version
        )

    def _try_repair_one(self, c: Coord) -> Optional[DeltaReport]:
        """Repair one isolated fault (a 1x1 block) without the generic
        machinery; ``None`` falls back for anything larger."""
        x, y = int(c[0]), int(c[1])
        W, H = self._W, self._H
        if not (0 <= x < W and 0 <= y < H):
            self._topology.check((x, y))  # raises TopologyError
        faulty = self._faulty
        if not faulty[x, y]:
            return DeltaReport(
                (), (), 0, 0, 0, 0, 0, 0, 0, 0, 0, version=self._version
            )
        bid = int(self._block_id[x, y])
        blk = self._blocks[bid]
        if blk.cells is not None or blk.ex != 1 or blk.ey != 1:
            return None
        faulty[x, y] = False
        self._unsafe[x, y] = False
        self._enabled[x, y] = True
        self._block_id[x, y] = -1
        del self._blocks[bid]
        self._version += 1
        self._num_updates += 1
        return DeltaReport(
            (), ((x, y),), 0, 0, 0, 1, 0, 1, 0, 0, 0, version=self._version
        )

    # -- phase 1: the frontier wave -------------------------------------------

    def _nbrs(self, x: int, y: int) -> List[Coord]:
        W, H = self._W, self._H
        if self._wraps:
            return [
                ((x + 1) % W, y),
                ((x - 1) % W, y),
                (x, (y + 1) % H),
                (x, (y - 1) % H),
            ]
        out = []
        if x + 1 < W:
            out.append((x + 1, y))
        if x > 0:
            out.append((x - 1, y))
        if y + 1 < H:
            out.append((x, y + 1))
        if y > 0:
            out.append((x, y - 1))
        return out

    def _wave_up(self, seeds: List[Coord]) -> Tuple[int, List[Coord]]:
        """Grow the unsafe plane to its fixpoint from the (re)asserted cells.

        Returns the changing-round count (identical to the dense
        warm-started schedule's) and the cells that flipped.
        """
        if not seeds:
            return 0, []
        if len(seeds) >= _WAVE_VECTOR_MIN:
            # The plane holds the seeds and lies below the fixpoint, so
            # the packed kernel resumes from it as its mask.
            grid, rounds = unsafe_fixpoint(
                self._topology, self._unsafe, self._definition
            )
            # flatnonzero, not argwhere: ~15x faster on a sparse plane.
            flat = np.flatnonzero(grid & ~self._unsafe)
            grown = list(zip((flat // self._H).tolist(), (flat % self._H).tolist()))
            self._unsafe = grid
            return rounds, grown
        unsafe = self._unsafe
        W, H = self._W, self._H
        wraps = self._wraps
        def2a = self._definition is SafetyDefinition.DEF_2A
        meter = self._frontier_meter
        nbrs = self._nbrs
        frontier: Set[Coord] = set()
        for cell in seeds:
            for nb in nbrs(*cell):
                if not unsafe[nb]:
                    frontier.add(nb)
        grown: List[Coord] = []
        rounds = 0
        while frontier:
            if meter is not None:
                meter.observe(len(frontier))
            flipped: List[Coord] = []
            for x, y in frontier:
                if wraps:
                    e = unsafe[(x + 1) % W, y]
                    w = unsafe[x - 1, y]
                    n = unsafe[x, (y + 1) % H]
                    s = unsafe[x, y - 1]
                else:
                    e = x + 1 < W and unsafe[x + 1, y]
                    w = x > 0 and unsafe[x - 1, y]
                    n = y + 1 < H and unsafe[x, y + 1]
                    s = y > 0 and unsafe[x, y - 1]
                if def2a:
                    if bool(e) + bool(w) + bool(n) + bool(s) >= 2:
                        flipped.append((x, y))
                elif (e or w) and (n or s):
                    flipped.append((x, y))
            if not flipped:
                break
            nxt: Set[Coord] = set()
            for cell in flipped:
                unsafe[cell] = True
            grown.extend(flipped)
            for cell in flipped:
                for nb in nbrs(*cell):
                    if not unsafe[nb]:
                        nxt.add(nb)
            rounds += 1
            frontier = nxt
        return rounds, grown

    # -- block registry --------------------------------------------------------

    def _block_cells(self, blk: _Block) -> Iterable[Coord]:
        if blk.cells is not None:
            return blk.cells
        W, H = self._W, self._H
        if self._wraps:
            return [
                ((blk.x0 + i) % W, (blk.y0 + j) % H)
                for i in range(blk.ex)
                for j in range(blk.ey)
            ]
        return [
            (blk.x0 + i, blk.y0 + j)
            for i in range(blk.ex)
            for j in range(blk.ey)
        ]

    def _flood_register(self, area: Set[Coord]) -> Tuple[List[_Block], bool]:
        """Partition ``area`` into 4-connected components and register them.

        Returns the rectangular blocks formed plus whether any component
        was irregular (torus full-wrap), which forces a global phase-2
        resync.
        """
        bid_grid = self._block_id
        nbrs = self._nbrs
        remaining = set(area)
        new_blocks: List[_Block] = []
        irregular = False
        while remaining:
            start = remaining.pop()
            stack = [start]
            comp = [start]
            while stack:
                cell = stack.pop()
                for nb in nbrs(*cell):
                    if nb in remaining:
                        remaining.discard(nb)
                        comp.append(nb)
                        stack.append(nb)
            bid = self._next_id
            self._next_id += 1
            for c in comp:
                bid_grid[c] = bid
            faults = tuple(sorted(c for c in comp if self._faulty[c]))
            blk = self._canonicalize(comp, faults)
            self._blocks[bid] = blk
            if blk.rectangular:
                new_blocks.append(blk)
            else:
                irregular = True
        return new_blocks, irregular

    def _canonicalize(self, comp: List[Coord], faults: Tuple[Coord, ...]) -> _Block:
        """Fit a component into an origin + extent frame.

        On a mesh every converged unsafe component is a rectangle (the
        paper's faulty-block theorem) — a violation raises
        :class:`~repro.errors.GeometryError`.  On a torus a component
        may wrap; it is canonicalized through the shortest covering arc
        per dimension, and components spanning a full dimension (where
        internal wrap links break the planar sub-solve) are kept as
        irregular explicit-cell blocks.
        """
        W, H = self._W, self._H
        xs = sorted({c[0] for c in comp})
        ys = sorted({c[1] for c in comp})
        if not self._wraps:
            x0, ex = xs[0], xs[-1] - xs[0] + 1
            y0, ey = ys[0], ys[-1] - ys[0] + 1
            if ex * ey != len(comp):
                raise GeometryError(
                    f"faulty block at ({x0},{y0}) is not a rectangle: "
                    f"{len(comp)} cells in a {ex}x{ey} bounding box"
                )
        else:
            span_x = _circular_extent(xs, W)
            span_y = _circular_extent(ys, H)
            if span_x is None or span_y is None:
                return _Block(0, 0, 0, 0, (), tuple(sorted(comp)), faults)
            x0, ex = span_x
            y0, ey = span_y
            if ex * ey != len(comp):
                return _Block(0, 0, 0, 0, (), tuple(sorted(comp)), faults)
        offsets = tuple(
            sorted(((c[0] - x0) % W) * ey + ((c[1] - y0) % H) for c in faults)
        )
        return _Block(x0, y0, ex, ey, offsets, None, faults)

    # -- phase 2: per-block solves ---------------------------------------------

    def _enable_block(self, blk: _Block) -> Tuple[int, int, int]:
        """Restore the enable fixpoint inside one rectangular block.

        Returns ``(newly_disabled, newly_activated, rounds)``; rounds
        are zero when the cache already held the block's solution.
        """
        cache = self.cache
        ex, ey = blk.ex, blk.ey
        if ex == 1 and ey == 1:
            # A lone fault: the block is the fault itself; its solution
            # is the constant all-disabled mask, served as a cache hit.
            cache.hits += 1
            self._enabled[blk.x0, blk.y0] = False
            return 0, 0, 0
        key: CacheKey = (ex, ey, blk.offsets)
        entry = cache.get(key)
        if entry is None:
            sub, solve_rounds = _solve_block(ex, ey, blk.offsets)
            cache.put(key, (sub, solve_rounds))
            rounds = solve_rounds
        else:
            sub, _ = entry
            rounds = 0
        enabled = self._enabled
        W, H = self._W, self._H
        x0, y0 = blk.x0, blk.y0
        if x0 + ex <= W and y0 + ey <= H:
            view = enabled[x0 : x0 + ex, y0 : y0 + ey]
            fview = self._faulty[x0 : x0 + ex, y0 : y0 + ey]
            before = view.copy()
            nd = int(np.count_nonzero(before & ~sub & ~fview))
            na = int(np.count_nonzero(~before & sub))
            view[...] = sub
        else:  # torus block straddling the seam
            idx = np.ix_((x0 + np.arange(ex)) % W, (y0 + np.arange(ey)) % H)
            before = enabled[idx]
            fview = self._faulty[idx]
            nd = int(np.count_nonzero(before & ~sub & ~fview))
            na = int(np.count_nonzero(~before & sub))
            enabled[idx] = sub
        return nd, na, rounds

    def _resync_enabled(self) -> Tuple[int, int, int]:
        """Global phase-2 fallback for irregular (full-wrap) components."""
        before = self._enabled
        enabled, rounds = enabled_fixpoint(self._topology, self._faulty, self._unsafe)
        nd = int(np.count_nonzero(before & ~enabled & ~self._faulty))
        na = int(np.count_nonzero(~before & enabled))
        self._enabled = enabled
        return nd, na, rounds

    # -- geometric views --------------------------------------------------------

    def snapshot(self, telemetry: Optional[Telemetry] = None) -> LabelingResult:
        """A full :class:`~repro.core.pipeline.LabelingResult` of the
        current state, equivalent to from-scratch labeling of the
        accumulated faults.  Round counts are the totals the incremental
        updates actually spent.  The snapshot (and the block/region
        views) is the only query that runs geometric extraction; plane
        and registry queries never do.  Torus states are unwrapped
        exactly like ``label_mesh`` results (see ``unwrap_shift``).
        """
        cached = self._geom_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        result = assemble_result(
            topology=self._topology,
            faults=self.faults,
            definition=self._definition,
            faulty=self._faulty.copy(),
            unsafe=self._unsafe.copy(),
            enabled=self._enabled.copy(),
            rounds_phase1=self._total_rounds1,
            rounds_phase2=self._total_rounds2,
            backend="incremental",
            method="incremental",
            telemetry=telemetry,
        )
        self._geom_cache = (self._version, result)
        return result

    def blocks_view(self):
        """Extracted faulty blocks (torus: in the unwrap frame).

        Lazily computed and cached per version — repeated queries
        between updates are free.
        """
        return self.snapshot().blocks

    def regions_view(self):
        """Extracted disabled regions (torus: in the unwrap frame)."""
        return self.snapshot().regions

    # -- verification -----------------------------------------------------------

    def verify_against_scratch(self) -> bool:
        """Whether the maintained planes equal the from-scratch fixpoints."""
        scratch_unsafe, _ = unsafe_fixpoint(
            self._topology, self._faulty, self._definition
        )
        if not np.array_equal(scratch_unsafe, self._unsafe):
            return False
        scratch_enabled, _ = enabled_fixpoint(
            self._topology, self._faulty, scratch_unsafe
        )
        return bool(np.array_equal(scratch_enabled, self._enabled))


def _solve_block(ex: int, ey: int, offsets: Tuple[int, ...]) -> Tuple[BoolGrid, int]:
    """Solve the enable fixpoint on one isolated block.

    The block's exterior neighbours are all safe (maximality of the
    component), hence enabled — exactly the ghost-ring boundary of a
    standalone ``ex x ey`` mesh whose cells are all unsafe.  The result
    depends only on the extent and the relative fault offsets, which is
    what makes the cache sound.
    """
    sub_faulty = np.zeros((ex, ey), dtype=bool)
    sub_faulty.ravel()[np.asarray(offsets, dtype=np.intp)] = True
    sub_unsafe = np.ones((ex, ey), dtype=bool)
    # Every cell of a block can change, so the dense kernel always wins
    # here (docs/algorithms.md §5.1.1).
    enabled, rounds = enabled_fixpoint(Mesh2D(ex, ey), sub_faulty, sub_unsafe)
    enabled.setflags(write=False)
    return enabled, rounds
