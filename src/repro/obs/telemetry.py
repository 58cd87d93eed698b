"""The telemetry facade instrumented components talk to.

One :class:`Telemetry` bundles the three observability legs — an event
log (level-filtered fan-out to sinks), a metrics registry, and a span
recorder — behind a handful of cheap calls.  Any leg may be absent:
``Telemetry(sinks=[JSONLSink(...)])`` records events only,
``Telemetry(metrics=MetricsRegistry())`` metrics only.

**The disabled path is no path at all.**  Instrumented code takes
``telemetry: Optional[Telemetry] = None`` and guards every site with
``if telemetry is not None`` (or a cached series reference), so a run
without telemetry executes exactly the pre-instrumentation code plus a
handful of predictable branches — the perf baseline pins the pipeline
regression below 2%.

Context labels: :meth:`Telemetry.child` returns a view with extra bound
labels (e.g. ``engine="sync"``, ``phase="unsafe"``).  Bound labels ride
on every emitted event's fields and on every metric series created
through the child, so one registry can hold both phases of a pipeline
run without ambiguity.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, ContextManager, Dict, Iterable, Optional

from repro.obs.events import LEVELS, Event, default_level
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sinks import EventSink, NullSink
from repro.obs.spans import SpanRecorder

__all__ = ["Telemetry"]

_NULL_CONTEXT: ContextManager[None] = nullcontext()


class Telemetry:
    """Bundle of event sinks, a metrics registry and a span recorder.

    Parameters
    ----------
    sinks:
        Event sinks; empty means events are dropped before construction.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`, or ``None`` for
        no metrics.
    spans:
        A :class:`~repro.obs.spans.SpanRecorder`, or ``None`` for no
        profiling.
    log_level:
        Minimum event severity kept (``"debug"`` keeps everything,
        ``"info"`` drops per-node chatter such as ``node_flip``).

    A fresh telemetry binds no context labels; :meth:`child` adds them.
    """

    __slots__ = ("_sinks", "metrics", "spans", "labels", "_min_level")

    def __init__(
        self,
        sinks: Iterable[EventSink] = (),
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        log_level: str = "info",
    ):
        if log_level not in LEVELS:
            raise ValueError(f"log_level must be one of {LEVELS}, got {log_level!r}")
        self._sinks = tuple(sinks)
        self.metrics = metrics
        self.spans = spans
        self.labels: Dict[str, Any] = {}
        self._min_level = LEVELS.index(log_level)

    @classmethod
    def null(cls) -> "Telemetry":
        """A telemetry that exercises the full emit path, debug events
        included, into a :class:`~repro.obs.sinks.NullSink` — the
        benchmark configuration for measuring instrumentation overhead."""
        return cls(sinks=(NullSink(),), log_level="debug")

    def child(self, **labels: Any) -> "Telemetry":
        """A view sharing sinks/metrics/spans with extra bound labels."""
        merged = dict(self.labels)
        merged.update(labels)
        out = Telemetry.__new__(Telemetry)
        out._sinks = self._sinks
        out.metrics = self.metrics
        out.spans = self.spans
        out.labels = merged
        out._min_level = self._min_level
        return out

    # -- events ---------------------------------------------------------------

    def wants(self, level: str) -> bool:
        """Whether events at ``level`` reach any sink."""
        return bool(self._sinks) and LEVELS.index(level) >= self._min_level

    def emit(self, name: str, level: Optional[str] = None, **fields: Any) -> None:
        """Emit one event to every sink (after level filtering).

        Bound labels are merged under the event's explicit fields.
        """
        lvl = level if level is not None else default_level(name)
        if not self._sinks or LEVELS.index(lvl) < self._min_level:
            return
        if self.labels:
            merged = dict(self.labels)
            merged.update(fields)
            fields = merged
        event = Event(name=name, t=time.time(), level=lvl, fields=fields)
        for sink in self._sinks:
            sink.emit(event)

    def close(self) -> None:
        """Close every sink (flushes file sinks)."""
        for sink in self._sinks:
            sink.close()

    # -- metrics (bound-label conveniences) -----------------------------------

    def counter(self, name: str, **labels: Any) -> Optional[Counter]:
        """The counter for ``name`` under the bound labels, or ``None``
        when no registry is attached.  Emitters cache the returned
        series and update it directly in hot loops."""
        if self.metrics is None:
            return None
        return self.metrics.counter(name, **{**self.labels, **labels})

    def gauge(self, name: str, **labels: Any) -> Optional[Gauge]:
        """The gauge for ``name`` under the bound labels (or ``None``)."""
        if self.metrics is None:
            return None
        return self.metrics.gauge(name, **{**self.labels, **labels})

    def histogram(self, name: str, **labels: Any) -> Optional[Histogram]:
        """The histogram for ``name`` under the bound labels (or ``None``)."""
        if self.metrics is None:
            return None
        return self.metrics.histogram(name, **{**self.labels, **labels})

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, **args: Any) -> ContextManager[None]:
        """A profiling span, or a shared no-op context without a recorder."""
        if self.spans is None:
            return _NULL_CONTEXT
        return self.spans.span(name, **args)

    def span_context(self, **args: Any) -> ContextManager[None]:
        """Bind ``args`` onto every span recorded inside (see
        :meth:`SpanRecorder.context`); a no-op context without a
        recorder.  This is how a request's trace id reaches the engine
        spans it causes without threading through every signature."""
        if self.spans is None or not args:
            return _NULL_CONTEXT
        return self.spans.context(**args)
