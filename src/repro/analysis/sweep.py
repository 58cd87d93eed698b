"""Generic parameter sweeps.

A convenience wrapper used by the ablation benchmarks: evaluate a
metric function over a grid of parameter values with per-point trial
replication, returning rows ready for
:func:`repro.analysis.tables.format_table`.

``jobs > 1`` distributes the (value, trial) grid over the amortized
chunked executor of :mod:`repro.analysis.executor`: a warm process pool
shared across sweeps, chunk sizes calibrated from the first cell's
measured cost, and an automatic serial fallback when the sweep is too
small to amortize the pool — so ``jobs > 1`` is never slower than
serial.  Every cell's generator is derived from ``(seed, value_index,
trial_index)`` alone, so results are bit-identical to a serial sweep
regardless of scheduling, chunking, or fallback; aggregation happens in
deterministic (value, trial) order either way.  The metric function
must be picklable (a module-level function) when ``jobs > 1``.  Note
that the fallback evaluates cells in the parent process; pass an
explicit ``chunk_size`` to force worker isolation for metrics that may
crash their process.

Sweeps degrade gracefully: a cell whose metric function raises does not
abort the sweep.  The cell contributes no samples and is recorded as a
:class:`CellFailure` on its value's :class:`SweepPoint`, so long
multi-hour sweeps report partial results plus a precise account of what
went wrong instead of dying on the last trial.  A worker process dying
outright (``BrokenProcessPool``) is retried on a fresh pool a bounded
number of times before the poison cell is isolated and marked failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.executor import _BROKEN_POOL_RETRIES, run_cells
from repro.analysis.experiment import trial_rng
from repro.analysis.stats import Summary, summarize
from repro.obs.telemetry import Telemetry

__all__ = ["CellFailure", "SweepPoint", "sweep"]

#: Decorrelates the per-value root seeds (same constant as always).
_VALUE_SEED_STRIDE = 104729

MetricFn = Callable[[object, np.random.Generator], Dict[str, float]]


@dataclass(frozen=True)
class CellFailure:
    """One (value, trial) cell whose metric function did not produce
    metrics: the exception's type and message, for the sweep report."""

    value: object
    trial: int
    error: str


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated metrics of one parameter value.

    ``metrics`` summarises the trials that succeeded; ``failures``
    records the ones that did not (empty on a clean sweep).
    """

    value: object
    metrics: Dict[str, Summary]
    failures: Tuple[CellFailure, ...] = ()


class _CellError:
    """Picklable marker for a failed cell (crosses the pool boundary)."""

    __slots__ = ("error",)

    def __init__(self, error: str):
        self.error = error


def _eval_cell(task: Tuple[MetricFn, object, int, int, int, int]):
    fn, value, vi, ti, trials, seed = task
    rng = trial_rng(trials, seed + _VALUE_SEED_STRIDE * vi, ti)
    try:
        return fn(value, rng)
    except BaseException as exc:  # worker-side: report, don't kill the sweep
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return _CellError(f"{type(exc).__name__}: {exc}")


def _broken_cell() -> "_CellError":
    """The placeholder for a cell that kept killing its workers."""
    return _CellError(
        "worker lost: BrokenProcessPool "
        f"(after {_BROKEN_POOL_RETRIES} pool retries)"
    )


def sweep(
    values: Sequence[object],
    fn: MetricFn,
    trials: int = 10,
    seed: int = 0,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
    chunk_size: Optional[int] = None,
) -> List[SweepPoint]:
    """Evaluate ``fn(value, rng) -> {metric: number}`` over a value grid.

    Each (value, trial) combination receives an independent spawned
    generator; metrics are summarised per value.  Metric keys may vary
    between trials (missing keys are simply absent from that sample).
    ``jobs > 1`` evaluates the grid on the warm chunked executor with
    identical results (see module docstring); ``chunk_size`` overrides
    the calibrated cells-per-dispatch and forces parallel execution
    even when the amortization estimate would fall back to serial.  A
    raising cell is recorded on its point's ``failures`` instead of
    aborting the sweep — identically in serial and parallel runs.

    ``telemetry`` (optional) profiles the evaluation (a ``sweep_cell``
    span per cell serially, one ``sweep_eval`` span per pool batch),
    counts ``sweep_cells_total`` / ``sweep_cell_failures_total``, and
    emits one ``sweep_cell`` event per cell — carrying the cell's
    metrics, or the captured :class:`CellFailure` error when the metric
    function raised.  Events are emitted during the deterministic
    aggregation pass in the parent process, so a traced parallel sweep
    logs in exactly the serial (value, trial) order.  With a metrics
    registry attached, the executor additionally keeps live
    ``executor_cells_done`` / ``executor_cells_pending`` series updated
    while the sweep runs — scrapeable through an in-process
    :class:`repro.obs.exposition.AdminServer` over the same registry.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    tasks = [
        (fn, value, vi, ti, trials, seed)
        for vi, value in enumerate(values)
        for ti in range(trials)
    ]
    tel = telemetry
    events_on = tel is not None and tel.wants("info")
    span = (tel if tel is not None else Telemetry()).span
    if jobs <= 1:
        rows = []
        for task in tasks:
            with span("sweep_cell", value=task[1], trial=task[3]):
                rows.append(_eval_cell(task))
    else:
        with span("sweep_eval", jobs=jobs, cells=len(tasks)):
            rows, plan = run_cells(
                _eval_cell,
                tasks,
                jobs,
                broken_marker=_broken_cell,
                chunk_size=chunk_size,
                telemetry=tel,
            )
        if events_on:
            tel.emit(
                "sweep_plan",
                jobs=jobs,
                parallel=plan.parallel,
                chunk=plan.chunk_size,
                pool_was_warm=plan.pool_was_warm,
            )
    cells_meter = tel.counter("sweep_cells_total") if tel is not None else None
    fails_meter = (
        tel.counter("sweep_cell_failures_total") if tel is not None else None
    )
    points: List[SweepPoint] = []
    for vi, value in enumerate(values):
        samples: Dict[str, List[float]] = {}
        failures: List[CellFailure] = []
        for ti, row in enumerate(rows[vi * trials : (vi + 1) * trials]):
            if cells_meter is not None:
                cells_meter.inc()
            if isinstance(row, _CellError):
                failures.append(CellFailure(value=value, trial=ti, error=row.error))
                if fails_meter is not None:
                    fails_meter.inc()
                if events_on:
                    tel.emit(
                        "sweep_cell",
                        value=value,
                        trial=ti,
                        ok=False,
                        error=row.error,
                    )
                continue
            if events_on:
                tel.emit("sweep_cell", value=value, trial=ti, ok=True, metrics=row)
            for key, num in row.items():
                samples.setdefault(key, []).append(float(num))
        points.append(
            SweepPoint(
                value=value,
                metrics={k: summarize(v) for k, v in samples.items()},
                failures=tuple(failures),
            )
        )
    return points
