"""A small labeled-series metrics registry.

Counters, gauges and histograms in the Prometheus mold: a *metric* is a
name plus a label set, and each distinct ``(name, labels)`` pair is its
own series.  The registry hands out series objects on first use;
emitters keep a reference and update it in their hot loop, so the
per-round cost is one attribute increment, not a dict lookup.

The engines update their series at exactly the points where
:class:`~repro.fabric.stats.RunStats` is updated, so a run's metrics
snapshot agrees *bit for bit* with its ``RunStats`` — a property test
holds the two together across engines, channels and fault schedules.
Integer-valued series stay integers (no float drift).

:meth:`MetricsRegistry.snapshot` returns plain nested dicts ready for
``json.dump``; series keys are rendered Prometheus-style:
``name{label="value",...}``.

:func:`nearest_rank` is the package's one percentile rule: the traffic
engines, the service's latency window, the SLO grader and the trace
summaries all report through it, so their numbers agree.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "latency_percentiles",
    "nearest_rank",
]

Number = Union[int, float]

#: A series key: (name, sorted (label, value) pairs).
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def nearest_rank(ordered: Sequence[Number], q: float) -> Number:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty,
    ascending sequence: its element at rank ``ceil(q * n)``.

    Callers sort, and choose what an empty sample reports.
    """
    n = len(ordered)
    return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]


def latency_percentiles(
    samples: List[float], errors: int = 0
) -> Dict[str, float]:
    """Nearest-rank percentile summary of a latency sample set (µs);
    every rank reads 0.0 when there are no samples."""
    ordered = sorted(samples)
    n = len(ordered)

    def rank(q: float) -> float:
        return nearest_rank(ordered, q) if n else 0.0

    return {
        "count": float(n),
        "errors": float(errors),
        "p50": rank(0.50),
        "p90": rank(0.90),
        "p99": rank(0.99),
        "max": ordered[-1] if n else 0.0,
    }


def _series_key(name: str, labels: Dict[str, Any]) -> SeriesKey:
    return name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(key: SeriesKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


class Histogram:
    """Streaming count/sum/min/max of observed values.

    Enough to reconstruct per-round aggregates exactly (``sum`` over a
    ``messages_per_round`` histogram equals
    :attr:`~repro.fabric.stats.RunStats.total_messages`; ``count``
    equals the executed-round count) without storing every sample.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Absorb a whole batch of samples (numpy array or sequence).

        The batched traffic engine observes one array per cycle; folding
        it here keeps the hot loop free of per-sample Python calls.
        Aggregates stay integers when the samples are integers.
        """
        n = len(values)
        if n == 0:
            return
        if hasattr(values, "min"):  # numpy array: one C reduction each
            lo = values.min().item()
            hi = values.max().item()
            total = values.sum().item()
        else:
            lo = min(values)
            hi = max(values)
            total = sum(values)
        self.count += n
        self.total += total
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi


class MetricsRegistry:
    """Get-or-create home of every metric series.

    Asking for the same ``(name, labels)`` twice returns the same series
    object; asking for an existing name with a different *kind* raises.
    """

    __slots__ = ("_series", "_kinds")

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, object] = {}
        self._kinds: Dict[str, type] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series for ``(name, labels)``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series for ``(name, labels)``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram series for ``(name, labels)``."""
        return self._get(Histogram, name, labels)

    def _get(self, kind: type, name: str, labels: Dict[str, Any]):
        known = self._kinds.get(name)
        if known is not None and known is not kind:
            raise ValueError(
                f"metric {name!r} is a {known.__name__}, not a {kind.__name__}"
            )
        key = _series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = kind()
            self._kinds[name] = kind
        return series

    def series(self):
        """All series as ``(name, labels, series)`` triples, sorted by
        key — ``labels`` is the sorted ``((label, value), ...)`` tuple.

        This is the structured view :mod:`repro.obs.exposition` renders
        to Prometheus text; :meth:`snapshot` is the flat JSON view.
        """
        return [
            (key[0], key[1], self._series[key]) for key in sorted(self._series)
        ]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All series as plain JSON-ready dicts, keyed by rendered name.

        Shape: ``{"counters": {key: value}, "gauges": {key: value},
        "histograms": {key: {"count", "sum", "min", "max"}}}``.
        """
        out: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for key in sorted(self._series):
            series = self._series[key]
            rendered = _render_key(key)
            if isinstance(series, Counter):
                out["counters"][rendered] = series.value
            elif isinstance(series, Gauge):
                out["gauges"][rendered] = series.value
            else:
                out["histograms"][rendered] = {
                    "count": series.count,
                    "sum": series.total,
                    "min": series.min,
                    "max": series.max,
                }
        return out

    def write(self, path: str) -> None:
        """Dump :meth:`snapshot` as indented JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
