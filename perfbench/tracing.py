"""Per-layer spans recorded from outside the program under test.

A :class:`Tracer` wraps the public functions each layer exposes (module
attributes, or methods of a live object such as the service's engine)
in a span, and counts work at the same boundary.  Spans are kept in
memory by a :class:`repro.obs.spans.SpanRecorder` — the one source of
timing — and written as a Chrome trace when the run ends.  Self time, a
span's duration minus the part covered by the spans nested inside it,
is derived from the trace by timestamp containment, so spans recorded
on the server's handler thread nest inside the client round trip that
caused them (the benchmark drives the server with one closed-loop
client).

Wrappers are installed only around traced units, so untraced units run
the program's own functions unwrapped.
"""

from __future__ import annotations

import collections
import functools
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Installs span wrappers; owns the span recorder and the counters."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.counts: Dict[str, float] = collections.Counter()
        self._patches: List[Tuple[Any, str, Any]] = []

    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        return self.recorder.span(name)

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        count: Optional[Callable[[Any, "Tracer"], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (undone by
        :meth:`restore`).  ``count(result, tracer)`` runs after each call
        to add the layer's work counts at the same boundary."""
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(span):
                result = original(*args, **kwargs)
            if count is not None:
                count(result, self)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def events(self) -> List[Dict[str, Any]]:
        return self.recorder.to_chrome_trace()["traceEvents"]


def durations(events: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Span durations in seconds, by span name."""
    out: Dict[str, List[float]] = collections.defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            out[ev["name"]].append(ev["dur"] / 1e6)
    return out


def self_times(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self time (seconds).

    ``events`` are Chrome complete events (``ts``/``dur`` in µs).  A span
    is nested in the innermost open span whose interval contains it.
    """
    spans = sorted(
        (e for e in events if e.get("ph") == "X"),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    table: Dict[str, Dict[str, float]] = {}
    stack: List[List[Any]] = []  # [row, end_us, dur_us, child_us]

    def close(entry):
        row, _, dur, child = entry
        row["self_s"] += max(0.0, dur - child) / 1e6

    for ev in spans:
        start, dur = ev["ts"], ev["dur"]
        while stack and start >= stack[-1][1]:
            close(stack.pop())
        if stack:
            stack[-1][3] += dur
        row = table.setdefault(ev["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur / 1e6
        stack.append([row, start + dur, dur, 0.0])
    while stack:
        close(stack.pop())
    return table


def format_self_times(table: Dict[str, Dict[str, float]]) -> str:
    """The self-time table, by span and summed per layer (the span
    name's first dotted component)."""
    lines = [f"{'span':<28} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        lines.append(
            f"{name:<28} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    layers: Dict[str, float] = collections.Counter()
    for name, row in table.items():
        layers[name.split(".")[0]] += row["self_s"]
    total = sum(layers.values()) or 1.0
    lines.append("")
    lines.append(f"{'layer':<28} {'self_s':>10} {'share':>8}")
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<28} {self_s:>10.4f} {100 * self_s / total:>7.1f}%")
    return "\n".join(lines)
