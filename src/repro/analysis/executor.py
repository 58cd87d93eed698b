"""Amortized parallel cell execution for sweeps.

The naive per-sweep ``ProcessPoolExecutor`` made ``jobs=2`` *slower*
than serial for the benchmark-sized sweeps: pool spawn plus one
inter-process round trip per cell cost more than the cells themselves.
This module fixes both ends of that trade:

* **Warm pools** — one process pool per worker count is kept alive in a
  module registry and reused across sweep calls, so only the first
  parallel sweep of a process pays the spawn cost.  A pool poisoned by
  a worker crash (``BrokenProcessPool``) is discarded and lazily
  respawned.

* **Calibrated chunking** — the first cell is evaluated in the parent
  and timed; the measured per-cell cost sizes the chunks handed to
  workers (one pickle round trip per *chunk*, not per cell) and feeds
  the amortization decision below.

* **Serial fallback** — parallel execution saves roughly
  ``est_total * (1 - 1/jobs)`` and costs a pool spawn (when cold) plus
  a dispatch round trip per chunk.  When the estimated savings cannot
  cover that overhead the remaining cells run serially in the parent,
  so ``jobs > 1`` is never slower than serial by more than the one
  timed cell.

Scheduling never changes results: cells must be pure functions of their
task tuples (each sweep cell derives its generator from its grid
position), so serial, chunked, and retried executions are bit-identical.

Crash semantics match the old per-sweep executor: a chunk interrupted
by ``BrokenProcessPool`` is retried on a fresh pool a bounded number of
times, then re-run cell by cell to isolate the poison cell, which is
recorded via ``broken_marker`` while every healthy cell still returns
its real result.
"""

from __future__ import annotations

import atexit
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.obs.telemetry import Telemetry

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ExecutionReport",
    "WarmPoolRegistry",
    "run_cells",
    "shared_pools",
]

#: Estimated cost of spawning a fresh process pool (fork + first-task
#: import amortization).  Deliberately conservative: falling back to
#: serial on a borderline sweep costs almost nothing, spawning a pool
#: for one that cannot amortize it costs a visible stall.
_POOL_SPAWN_COST_S = 0.15

#: Estimated per-chunk dispatch cost on a warm pool (pickle + queue
#: round trip; measured ~0.4 ms on the reference box).
_DISPATCH_COST_S = 0.0005

#: Target wall-clock duration of one chunk.  Large enough to amortize
#: the dispatch round trip, small enough to load-balance.
_TARGET_CHUNK_S = 0.05

#: Hard bounds on the calibrated chunk size.
_MAX_CHUNK = 256

#: Fresh pools tried after a worker crash before the failing chunk is
#: re-run cell by cell (and, at chunk size one, before the poison cell
#: is marked failed).
_BROKEN_POOL_RETRIES = 2


@dataclass(frozen=True)
class ExecutionReport:
    """How one :func:`run_cells` call actually executed."""

    cells: int
    jobs: int
    parallel: bool
    chunk_size: int
    #: Measured seconds for the calibration cell (0.0 when nothing was
    #: calibrated: empty task list or explicit chunk size).
    calibrated_cell_s: float
    #: Whether a warm pool from a previous call was available.
    pool_was_warm: bool


class WarmPoolRegistry:
    """Process pools kept alive across calls, keyed by worker count."""

    def __init__(self) -> None:
        self._pools: Dict[int, ProcessPoolExecutor] = {}

    def warm(self, jobs: int) -> bool:
        """Whether a pool for ``jobs`` workers is already running."""
        return jobs in self._pools

    def get(self, jobs: int) -> ProcessPoolExecutor:
        """The warm pool for ``jobs`` workers, spawning it if needed."""
        pool = self._pools.get(jobs)
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = self._pools[jobs] = ProcessPoolExecutor(max_workers=jobs)
        return pool

    def discard(self, jobs: int) -> None:
        """Drop (and shut down) a poisoned pool so the next
        :meth:`get` spawns a fresh one."""
        pool = self._pools.pop(jobs, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Shut every pool down (process exit, or tests)."""
        for jobs in list(self._pools):
            pool = self._pools.pop(jobs)
            pool.shutdown(wait=False, cancel_futures=True)


#: The default registry shared by all sweeps in the process.
shared_pools = WarmPoolRegistry()
atexit.register(shared_pools.shutdown)


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _run_chunk(payload):
    """Worker-side: evaluate one chunk of cells in order."""
    cell_fn, cells = payload
    return [cell_fn(cell) for cell in cells]


def _progress_meters(
    telemetry: Optional[Telemetry], n: int
) -> Optional[Callable[[int], None]]:
    """A live-progress callback over the telemetry's registry, or
    ``None`` without one.

    The executor advances an ``executor_cells_done`` counter and drains
    an ``executor_cells_pending`` gauge *as chunks finish*, so an admin
    endpoint (:class:`repro.obs.exposition.AdminServer`) scraping the
    same registry watches a long sweep move instead of seeing totals
    appear only at the end.
    """
    if telemetry is None or telemetry.metrics is None:
        return None
    done = telemetry.counter("executor_cells_done")
    pending = telemetry.gauge("executor_cells_pending")
    pending.inc(n)

    def advance(k: int) -> None:
        done.inc(k)
        pending.dec(k)

    return advance


def run_cells(
    cell_fn: Callable[[object], object],
    tasks: Sequence[object],
    jobs: int,
    broken_marker: Optional[Callable[[], object]] = None,
    chunk_size: Optional[int] = None,
    registry: Optional[WarmPoolRegistry] = None,
    telemetry: Optional[Telemetry] = None,
):
    """Evaluate ``cell_fn`` over ``tasks``, amortizing pool costs.

    Parameters
    ----------
    cell_fn:
        Module-level (picklable) pure function of one task tuple.
    tasks:
        The cells, in result order.
    jobs:
        Worker processes; ``jobs <= 1`` runs serially in the parent.
    broken_marker:
        Zero-argument factory for the placeholder recorded when a cell
        keeps killing workers (``BrokenProcessPool`` after all
        retries).  ``None`` re-raises instead — for callers with no
        partial-failure concept.
    chunk_size:
        Explicit cells-per-dispatch, skipping calibration *and* the
        serial fallback (the caller has decided to go parallel).
        ``None`` calibrates from the first cell's runtime.
    registry:
        Warm-pool registry; defaults to the process-wide
        :data:`shared_pools`.
    telemetry:
        Optional; with a metrics registry attached the executor keeps
        live ``executor_cells_done`` / ``executor_cells_pending``
        series updated per finished chunk, scrapeable through an
        in-process admin endpoint while the sweep runs.

    Returns
    -------
    (rows, report)
        ``rows`` matches ``[cell_fn(t) for t in tasks]`` exactly —
        scheduling never leaks into results; ``report`` says how the
        call executed.
    """
    pools = shared_pools if registry is None else registry
    n = len(tasks)
    advance = _progress_meters(telemetry, n)
    if n == 0 or jobs <= 1:
        if advance is None:
            rows = [cell_fn(t) for t in tasks]
        else:
            rows = []
            for t in tasks:
                rows.append(cell_fn(t))
                advance(1)
        return rows, ExecutionReport(
            cells=n,
            jobs=jobs,
            parallel=False,
            chunk_size=1,
            calibrated_cell_s=0.0,
            pool_was_warm=pools.warm(jobs),
        )

    was_warm = pools.warm(jobs)
    if chunk_size is not None:
        chunk = max(1, int(chunk_size))
        rows = _map_chunked(
            cell_fn, list(tasks), jobs, chunk, broken_marker, pools, advance
        )
        return rows, ExecutionReport(
            cells=n,
            jobs=jobs,
            parallel=True,
            chunk_size=chunk,
            calibrated_cell_s=0.0,
            pool_was_warm=was_warm,
        )

    # Calibrate: run the first cell in the parent and time it.  Cells
    # are pure functions of their tasks, so computing it here is
    # bit-identical to computing it in a worker.
    t0 = time.perf_counter()
    first = cell_fn(tasks[0])
    per_cell = time.perf_counter() - t0
    if advance is not None:
        advance(1)

    rest = list(tasks[1:])
    chunk = _chunk_size(per_cell, len(rest), jobs)
    n_chunks = -(-len(rest) // chunk) if rest else 0
    est_total = per_cell * len(rest)
    overhead = (0.0 if was_warm else _POOL_SPAWN_COST_S)
    overhead += n_chunks * _DISPATCH_COST_S
    # Worker processes beyond the CPUs we may schedule on cannot add
    # throughput — on a single-CPU box, jobs=2 is pure overhead.
    speedup = 1.0 - 1.0 / min(jobs, _usable_cpus())
    parallel = bool(rest) and est_total * speedup > overhead

    if parallel:
        rows = [first] + _map_chunked(
            cell_fn, rest, jobs, chunk, broken_marker, pools, advance
        )
    else:
        serial_rest = []
        for t in rest:
            serial_rest.append(cell_fn(t))
            if advance is not None:
                advance(1)
        rows = [first] + serial_rest
    return rows, ExecutionReport(
        cells=n,
        jobs=jobs,
        parallel=parallel,
        chunk_size=chunk,
        calibrated_cell_s=per_cell,
        pool_was_warm=was_warm,
    )


def _chunk_size(per_cell: float, n: int, jobs: int) -> int:
    """Cells per dispatch: aim for ``_TARGET_CHUNK_S`` chunks, but keep
    at least ~4 chunks per worker for load balance."""
    if n == 0:
        return 1
    if per_cell <= 0.0:
        by_cost = _MAX_CHUNK
    else:
        by_cost = int(_TARGET_CHUNK_S / per_cell) + 1
    by_balance = -(-n // (4 * jobs))
    return max(1, min(by_cost, by_balance, _MAX_CHUNK))


def _map_chunked(
    cell_fn: Callable[[object], object],
    tasks: List[object],
    jobs: int,
    chunk: int,
    broken_marker: Optional[Callable[[], object]],
    pools: WarmPoolRegistry,
    advance: Optional[Callable[[int], None]] = None,
) -> List[object]:
    """Ordered chunked map on a warm pool, surviving worker crashes.

    A ``BrokenProcessPool`` (worker killed by the OS, segfault in a
    native extension, ...) poisons the whole executor, so the poisoned
    pool is discarded and the batch resumed on a fresh one from the
    first unfinished chunk.  That chunk is first *retried* — the crash
    may have been transient — and once it has crashed
    ``_BROKEN_POOL_RETRIES`` fresh pools it is re-run cell by cell to
    isolate the poison cell, which is recorded via ``broken_marker``
    while the chunk's healthy cells still contribute their results.
    """
    from concurrent.futures.process import BrokenProcessPool

    rows: List[object] = []
    crashes_at: Dict[int, int] = {}
    while len(rows) < len(tasks):
        start = len(rows)
        try:
            pool = pools.get(jobs)
            payloads = [
                (cell_fn, tasks[i : i + chunk])
                for i in range(start, len(tasks), chunk)
            ]
            for chunk_rows in pool.map(_run_chunk, payloads):
                rows.extend(chunk_rows)
                if advance is not None:
                    advance(len(chunk_rows))
        except BrokenProcessPool:
            pools.discard(jobs)
            pos = len(rows)
            crashes_at[pos] = crashes_at.get(pos, 0) + 1
            if crashes_at[pos] <= _BROKEN_POOL_RETRIES:
                continue
            if broken_marker is None:
                raise
            if chunk == 1:
                rows.append(broken_marker())
                if advance is not None:
                    advance(1)
            else:
                # Isolate the poison cell(s) inside the failing chunk.
                # The recursive call reports its own progress.
                failing = tasks[pos : pos + chunk]
                rows.extend(
                    _map_chunked(
                        cell_fn, failing, jobs, 1, broken_marker, pools, advance
                    )
                )
    return rows
