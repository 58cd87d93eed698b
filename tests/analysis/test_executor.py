"""Unit tests for the amortized cell executor."""

import os

import numpy as np
import pytest

from repro.analysis import executor
from repro.analysis.executor import (
    ExecutionReport,
    WarmPoolRegistry,
    _chunk_size,
    run_cells,
)


def _square(task):
    """Module-level (picklable) pure cell: exact float from the task."""
    return float(np.random.default_rng(task).random()) + task * task


def _poison(task):
    """Kills its worker outright on task 13 (parallel only)."""
    if task == 13:
        os._exit(1)
    return task * 2


def _slow(task):
    """A cell expensive enough for calibration to favour parallelism."""
    import time

    time.sleep(0.002)
    return task + 1


BROKEN = "<broken>"


def _marker():
    return BROKEN


@pytest.fixture
def registry():
    reg = WarmPoolRegistry()
    yield reg
    reg.shutdown()


class TestChunkingBitIdentical:
    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 100])
    def test_matches_serial_exactly(self, registry, jobs, chunk_size):
        tasks = list(range(11))
        serial = [_square(t) for t in tasks]
        rows, report = run_cells(
            _square, tasks, jobs, chunk_size=chunk_size, registry=registry
        )
        assert rows == serial  # exact floats, in task order
        assert report.parallel and report.chunk_size == chunk_size

    def test_jobs_one_is_serial(self, registry):
        tasks = [3, 1, 4]
        rows, report = run_cells(_square, tasks, 1, registry=registry)
        assert rows == [_square(t) for t in tasks]
        assert report == ExecutionReport(
            cells=3, jobs=1, parallel=False, chunk_size=1,
            calibrated_cell_s=0.0, pool_was_warm=False,
        )

    def test_empty_tasks(self, registry):
        rows, report = run_cells(_square, [], 4, registry=registry)
        assert rows == [] and not report.parallel


class TestSerialFallback:
    def test_cheap_cells_run_in_parent(self, registry):
        # Near-instant cells can never amortize pool costs, so the
        # calibrated decision must fall back to serial.
        rows, report = run_cells(_square, list(range(8)), 2, registry=registry)
        assert rows == [_square(t) for t in range(8)]
        assert not report.parallel
        assert report.calibrated_cell_s > 0.0
        assert not registry.warm(2)  # no pool was ever spawned

    def test_parallel_chosen_when_savings_dominate(self, registry, monkeypatch):
        # Make the decision CPU-independent: pretend 4 usable CPUs and a
        # warm pool, so 2 ms/cell over 40 cells clearly beats dispatch.
        monkeypatch.setattr(executor, "_usable_cpus", lambda: 4)
        registry.get(2)
        rows, report = run_cells(_slow, list(range(40)), 2, registry=registry)
        assert rows == [t + 1 for t in range(40)]
        assert report.parallel and report.pool_was_warm

    def test_single_cpu_never_goes_parallel(self, registry, monkeypatch):
        # On a one-CPU box extra workers add pure overhead; the
        # estimated speedup is zero, so even expensive cells stay serial.
        monkeypatch.setattr(executor, "_usable_cpus", lambda: 1)
        registry.get(2)
        _, report = run_cells(_slow, list(range(12)), 2, registry=registry)
        assert not report.parallel


class TestBrokenPoolRecovery:
    def test_poison_cell_marked_and_pool_reusable(self, registry):
        tasks = [1, 13, 3, 4]
        rows, report = run_cells(
            _poison, tasks, 2, broken_marker=_marker,
            chunk_size=1, registry=registry,
        )
        # Healthy cells keep their real results around the dead one.
        assert rows == [2, BROKEN, 6, 8]
        assert report.parallel
        # The poisoned pool was replaced: the registry still hands out a
        # working pool for the next call.
        assert registry.warm(2)
        rows2, _ = run_cells(
            _square, [5, 6], 2, chunk_size=1, registry=registry
        )
        assert rows2 == [_square(5), _square(6)]

    def test_poison_isolated_inside_large_chunk(self, registry):
        # With several cells per dispatch the failing chunk must be
        # re-run cell by cell so only the poison cell is marked.
        tasks = [1, 2, 13, 4, 5, 6]
        rows, _ = run_cells(
            _poison, tasks, 2, broken_marker=_marker,
            chunk_size=3, registry=registry,
        )
        assert rows == [2, 4, BROKEN, 8, 10, 12]

    def test_no_marker_reraises(self, registry):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            run_cells(_poison, [13], 2, chunk_size=1, registry=registry)


class TestChunkSize:
    def test_targets_chunk_duration(self):
        # 1 ms cells, plenty of work: ~50 cells per chunk.
        assert _chunk_size(0.001, 10_000, 2) == 51

    def test_load_balance_bound(self):
        # Few cheap cells: at least ~4 chunks per worker wins.
        assert _chunk_size(1e-7, 64, 2) == 8

    def test_bounds(self):
        assert _chunk_size(0.5, 100, 2) == 1  # expensive cells: singles
        assert _chunk_size(0.0, 10_000, 1) == 256  # capped at _MAX_CHUNK
        assert _chunk_size(0.001, 0, 2) == 1  # empty


class TestWarmPoolRegistry:
    def test_get_reuses_same_pool(self, registry):
        assert registry.get(2) is registry.get(2)
        assert registry.warm(2) and not registry.warm(3)

    def test_discard_forces_respawn(self, registry):
        first = registry.get(2)
        registry.discard(2)
        assert not registry.warm(2)
        assert registry.get(2) is not first

