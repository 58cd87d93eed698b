"""Rolling-window SLO evaluation over service request outcomes.

An SLO here is the pair of objectives a serving stack is typically held
to:

* a **latency objective** — "p99 update latency stays under X µs";
* an **availability objective** — "at least Y of requests succeed",
  tracked as an *error budget*: a window of ``n`` requests at target
  availability ``a`` may spend ``(1 - a) * n`` errors before the budget
  is exhausted.

:class:`SLOTracker` keeps a bounded rolling window of ``(ok,
latency_us)`` outcomes — every request the server answers *or rejects*
(oversized frames, deadline hits, load shedding) is recorded, so the
error budget sees the failures clients see.  :func:`evaluate_outcomes`
is the pure evaluation core, reused by ``repro obs summarize`` to grade
a recorded trace's ``service_request`` events against the same config
offline.

The evaluation surfaces in three places: ``LabelingService.stats()``
(the ``stats`` op and ``/varz``), the admin plane, and the summarize
report — one definition of "healthy", three vantage points.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Tuple

from repro.obs.metrics import nearest_rank

__all__ = ["SLOConfig", "SLOTracker", "evaluate_outcomes"]


@dataclass(frozen=True)
class SLOConfig:
    """The objectives a request window is graded against.

    Defaults suit the interactive update path of a mesh a few hundred
    nodes on a side; pass explicit objectives for benches or CI.
    """

    #: The latency objective in microseconds, applied at
    #: :attr:`latency_quantile`.
    latency_objective_us: float = 50_000.0
    #: Which quantile the latency objective constrains (0 < q <= 1).
    latency_quantile: float = 0.99
    #: Target success fraction; the error budget is its complement.
    availability_target: float = 0.999
    #: Rolling-window size in requests.
    window: int = 1024

    def __post_init__(self) -> None:
        if not 0.0 < self.latency_quantile <= 1.0:
            raise ValueError(
                f"latency_quantile must be in (0, 1], got {self.latency_quantile}"
            )
        if not 0.0 < self.availability_target <= 1.0:
            raise ValueError(
                "availability_target must be in (0, 1], got "
                f"{self.availability_target}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.latency_objective_us <= 0:
            raise ValueError(
                "latency_objective_us must be positive, got "
                f"{self.latency_objective_us}"
            )


def evaluate_outcomes(
    outcomes: Iterable[Tuple[bool, float]], config: SLOConfig
) -> Dict[str, Any]:
    """Grade a window of ``(ok, latency_us)`` outcomes against ``config``.

    Returns a JSON-ready dict:

    ``count`` / ``errors``
        Window size and failures in it.
    ``availability`` / ``availability_ok``
        Observed success fraction vs the target (vacuously met on an
        empty window).
    ``error_budget_total`` / ``error_budget_spent`` / ``error_budget_remaining``
        The window's error allowance ``(1 - target) * count`` and how
        much of it the observed errors consume; ``remaining`` floors at
        0.  A budget of 0 (small window, tight target) means any error
        breaks availability.
    ``latency_quantile_us`` / ``latency_ok``
        The configured quantile of *successful* request latencies
        (nearest rank) vs the objective — rejected requests are
        answered in constant time and would flatter the percentile.
    ``ok``
        Both objectives met.
    """
    oks: list = []
    errors = 0
    for ok, latency_us in outcomes:
        if ok:
            oks.append(float(latency_us))
        else:
            errors += 1
    count = len(oks) + errors
    availability = 1.0 if count == 0 else len(oks) / count
    budget_total = (1.0 - config.availability_target) * count
    budget_remaining = max(0.0, budget_total - errors)
    availability_ok = count == 0 or availability >= config.availability_target
    quantile_us = (
        nearest_rank(sorted(oks), config.latency_quantile) if oks else 0.0
    )
    latency_ok = quantile_us <= config.latency_objective_us
    return {
        "config": {
            "latency_objective_us": config.latency_objective_us,
            "latency_quantile": config.latency_quantile,
            "availability_target": config.availability_target,
            "window": config.window,
        },
        "count": count,
        "errors": errors,
        "availability": availability,
        "availability_ok": availability_ok,
        "error_budget_total": budget_total,
        "error_budget_spent": float(errors),
        "error_budget_remaining": budget_remaining,
        "latency_quantile_us": quantile_us,
        "latency_ok": latency_ok,
        "ok": availability_ok and latency_ok,
    }


class SLOTracker:
    """Thread-safe rolling window of request outcomes.

    The server's handler threads :meth:`record` concurrently with the
    admin thread's :meth:`evaluate`; one lock covers both (the window is
    bounded, so evaluation is O(window) worst case, far off the request
    hot path).
    """

    def __init__(self, config: SLOConfig = SLOConfig()):
        self.config = config
        self._outcomes: Deque[Tuple[bool, float]] = deque(maxlen=config.window)
        self._lock = threading.Lock()
        self._total = 0
        self._total_errors = 0

    def record(self, ok: bool, latency_us: float) -> None:
        """Add one request outcome (answered or rejected) to the window."""
        with self._lock:
            self._outcomes.append((bool(ok), float(latency_us)))
            self._total += 1
            if not ok:
                self._total_errors += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._outcomes)

    def evaluate(self) -> Dict[str, Any]:
        """Grade the current window; adds lifetime ``total`` /
        ``total_errors`` alongside the windowed figures."""
        with self._lock:
            outcomes = list(self._outcomes)
            total, total_errors = self._total, self._total_errors
        result = evaluate_outcomes(outcomes, self.config)
        result["total"] = total
        result["total_errors"] = total_errors
        return result
