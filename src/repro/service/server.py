"""The NDJSON socket front end of the labeling service.

``repro serve`` keeps one :class:`~repro.service.labeling.LabelingService`
alive behind a stream socket (TCP or Unix-domain).  The wire protocol is
newline-delimited JSON: each request is one JSON object on one line, each
response one JSON object on one line, in order, over a connection that
may carry any number of requests.

Requests name an ``op``:

``ping``
    Liveness probe; echoes the engine version.
``update``
    ``{"op": "update", "inject": [[x, y], ...], "repair": [...]}`` —
    absorb a fault delta, return the :class:`DeltaReport` as JSON.
    ``{"op": "update", "batch": [{"inject": ..., "repair": ...}, ...]}``
    pipelines several deltas through one request; the response carries
    ``"deltas"``, one entry (with its post-apply ``"version"``) per
    delta.  Either form may attach an idempotency key — ``"client"``
    (string) plus ``"seq"`` (integer, strictly increasing per client) —
    making retries safe: a replay of the client's current sequence
    number is answered from the stored outcome (``"duplicate": true``)
    without re-applying anything.
``query``
    ``{"op": "query", "coords": [[x, y], ...]}`` — per-node status, or
    ``{"op": "query", "what": "blocks" | "regions"}`` for geometric
    summaries.
``snapshot``
    The full labeling summary plus block/region summaries (runs the
    geometric extraction; cached per version).
``stats``
    Operational counters (:meth:`LabelingService.stats`).
``shutdown``
    Acknowledge, then stop the server.

Every response carries ``"ok"``; failures carry ``"error"`` (the
exception message) and ``"error_type"`` and never tear down the
connection — bad requests are part of normal operation for a long-lived
process.  Responses to requests that carried ``"seq"`` echo it back, so
a client can discard stale responses after wire-level duplication.  With
telemetry attached, each request emits a ``service_request`` event (op,
outcome, latency), which is what ``repro obs summarize`` turns into
per-op latency percentiles, and increments the
``service_requests{op=...,outcome=...}`` counter the admin plane's
``/metrics`` endpoint exposes; every outcome — answered or rejected —
also feeds the service's rolling SLO window.  Requests may carry a
``"trace"`` object (id stable across retries, fresh span id + attempt
per try); the server binds it onto the spans the dispatch records, so a
client trace and a server trace stitch into one timeline
(:func:`repro.obs.spans.stitch_chrome_traces`).

Hardening: request lines longer than ``max_frame`` bytes and lines that
are not valid UTF-8 are answered with a structured error (the oversized
line is drained, bounded); connections idle past ``conn_timeout`` are
closed; when more than ``max_inflight`` requests are already queued or
executing, new ones are shed immediately with a retryable
``ServiceOverloadedError`` response instead of growing the queue without
bound.  :meth:`LabelingServer.drain` implements graceful shutdown: stop
accepting, let in-flight requests finish, then fsync the WAL and write
the clean-shutdown marker via :meth:`LabelingService.finalize`.

The server is deliberately small: a threading ``socketserver`` with one
lock around the service (updates are serialized; the engine is not
thread-safe).  It exists so sweeps, notebooks, or non-Python tooling can
share one warm engine instead of each paying a from-scratch labeling.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.obs.telemetry import Telemetry
from repro.service.labeling import LabelingService

__all__ = ["LabelingServer", "handle_request", "serve_forever"]

#: Shared no-op telemetry for the untraced dispatch path (every guard
#: in it stays false, so the cost is a few predictable branches).
_NULL_TELEMETRY = Telemetry()


def _coord_list(value: Any, field: str) -> list:
    """Decode a request's coordinate list, strictly."""
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ServiceError(f"{field!r} must be a list of [x, y] pairs")
    out = []
    for item in value:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise ServiceError(
                f"{field!r} entries must be [x, y] integer pairs, got {item!r}"
            )
        out.append((item[0], item[1]))
    return out


def _idempotency_key(
    request: Dict[str, Any],
) -> Tuple[Optional[str], Optional[int]]:
    client = request.get("client")
    seq = request.get("seq")
    if client is not None and not isinstance(client, str):
        raise ServiceError(f"'client' must be a string, got {client!r}")
    if seq is not None and (not isinstance(seq, int) or isinstance(seq, bool)):
        raise ServiceError(f"'seq' must be an integer, got {seq!r}")
    return client, seq


def _update(service: LabelingService, request: Dict[str, Any]) -> Dict[str, Any]:
    client, seq = _idempotency_key(request)
    if "batch" in request:
        batch = request["batch"]
        if not isinstance(batch, list) or not all(
            isinstance(item, dict) for item in batch
        ):
            raise ServiceError(
                "'batch' must be a list of {inject, repair} objects"
            )
        deltas = [
            (
                _coord_list(item.get("inject"), "inject"),
                _coord_list(item.get("repair"), "repair"),
            )
            for item in batch
        ]
        outcome = service.apply_batch(deltas, client=client, seq=seq)
        response = {
            "ok": True,
            "version": outcome.version,
            "deltas": [{**d, "version": v} for d, v in outcome.deltas],
        }
    else:
        outcome = service.apply_batch(
            [
                (
                    _coord_list(request.get("inject"), "inject"),
                    _coord_list(request.get("repair"), "repair"),
                )
            ],
            client=client,
            seq=seq,
        )
        response = {
            "ok": True,
            "version": outcome.version,
            "delta": outcome.deltas[0][0] if outcome.deltas else {},
        }
    if outcome.duplicate:
        response["duplicate"] = True
    return response


def _query(service: LabelingService, request: Dict[str, Any]) -> Dict[str, Any]:
    if "coords" in request:
        coords = _coord_list(request["coords"], "coords")
        nodes = []
        for c in coords:
            status = service.status_of(c)
            nodes.append(
                {
                    "coord": list(c),
                    "status": status.value,
                    "enabled": service.is_enabled(c),
                }
            )
        return {"nodes": nodes}
    what = request.get("what")
    if what == "blocks":
        return {"blocks": service.block_summaries()}
    if what == "regions":
        regions = service.snapshot().regions
        x0, y0, x1, y1, cells = regions.cells.stats
        faults = regions.faults.stats[4]
        rows = zip(cells.tolist(), faults.tolist(), (x1 - x0 + y1 - y0).tolist())
        return {
            "regions": [
                {"cells": c, "faults": f, "nonfaulty": c - f, "diameter": d}
                for c, f, d in rows
            ]
        }
    raise ServiceError(
        "query needs 'coords' or 'what' in {'blocks', 'regions'}, "
        f"got {sorted(set(request) - {'op'})!r}"
    )


def _trace_args(request: Any) -> Dict[str, Any]:
    """Extract the request frame's trace context into span/event args.

    Clients attach ``{"trace": {"id", "span", "attempt"}}``; the id is
    stable across retries (one logical request), the span id is fresh
    per attempt, and the attempt counter distinguishes replays.  The
    mapping is lenient — a hand-rolled client with a partial or
    mis-typed trace object still gets served, it just traces less.
    """
    trace = request.get("trace") if isinstance(request, dict) else None
    if not isinstance(trace, dict):
        return {}
    args: Dict[str, Any] = {}
    if isinstance(trace.get("id"), str):
        args["trace"] = trace["id"]
    if isinstance(trace.get("span"), str):
        args["parent"] = trace["span"]
    attempt = trace.get("attempt")
    if isinstance(attempt, int) and not isinstance(attempt, bool):
        args["attempt"] = attempt
    return args


def handle_request(
    service: LabelingService,
    request: Dict[str, Any],
    lock: Optional[threading.Lock] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Dict[str, Any], bool]:
    """Dispatch one decoded request; return ``(response, shutdown)``.

    Never raises for malformed requests or library errors — those become
    ``{"ok": False, "error": ...}`` responses.  Shared by the socket
    server and the in-process tests, so the protocol has exactly one
    implementation.

    Observability: the dispatch runs under a ``service_request`` span
    with the frame's trace context *bound* onto every span recorded
    inside it (so the engine spans an update causes carry the client's
    trace id — stitched client/server traces line up by id); the
    ``service_request`` event carries the same context; the
    ``service_requests{op=...,outcome=...}`` counter and the service's
    rolling SLO window see every outcome.
    """
    t0 = time.perf_counter()
    op = request.get("op") if isinstance(request, dict) else None
    op_label = op if isinstance(op, str) else "?"
    trace_args = _trace_args(request)
    tel = telemetry if telemetry is not None else _NULL_TELEMETRY
    shutdown = False
    with tel.span_context(**trace_args), tel.span("service_request", op=op_label):
        try:
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object")
            if not isinstance(op, str):
                raise ServiceError("request needs a string 'op' field")
            guard = lock if lock is not None else threading.Lock()
            with guard:
                if op == "ping":
                    response: Dict[str, Any] = {
                        "ok": True,
                        "version": service.version,
                    }
                elif op == "update":
                    response = _update(service, request)
                elif op == "query":
                    response = {"ok": True, **_query(service, request)}
                elif op == "snapshot":
                    result = service.snapshot()
                    response = {
                        "ok": True,
                        "summary": result.summary(),
                        "blocks": service.block_summaries(),
                        "regions": _query(service, {"what": "regions"})["regions"],
                    }
                elif op == "stats":
                    response = {"ok": True, "stats": service.stats()}
                elif op == "shutdown":
                    response = {"ok": True, "version": service.version}
                    shutdown = True
                else:
                    raise ServiceError(f"unknown op {op!r}")
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            response = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
    if isinstance(request, dict) and "seq" in request:
        response["seq"] = request["seq"]
    latency_us = 1e6 * (time.perf_counter() - t0)
    counter = tel.counter(
        "service_requests",
        op=op_label,
        outcome="ok" if response["ok"] else "error",
    )
    if counter is not None:
        counter.inc()
    if tel.wants("info"):
        tel.emit(
            "service_request",
            op=op_label,
            ok=response["ok"],
            latency_us=latency_us,
            **trace_args,
        )
    service.record_request(response["ok"], latency_us)
    return response, shutdown


def _frame_error(message: str) -> Dict[str, Any]:
    return {"ok": False, "error": message, "error_type": "ServiceError"}


class _Handler(socketserver.StreamRequestHandler):
    """One connection: NDJSON lines in, NDJSON lines out."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: "LabelingServer" = self.server  # type: ignore[assignment]
        if server.conn_timeout is not None:
            self.connection.settimeout(server.conn_timeout)
        while True:
            try:
                line = self.rfile.readline(server.max_frame + 1)
            except socket.timeout:
                # An idle-past-deadline connection is a rejection the
                # client observes (its request, if any, dies unread):
                # the SLO error budget must see it.
                server.count_rejection("deadline")
                return
            except (OSError, ValueError):
                return
            if not line:
                return  # client closed cleanly
            if len(line) > server.max_frame and not line.endswith(b"\n"):
                intact = self._drain_oversized(server.max_frame)
                server.count_rejection("oversized")
                response: Dict[str, Any] = _frame_error(
                    f"request frame exceeds {server.max_frame} bytes"
                )
                shutdown = False
                if not intact:
                    return  # connection died (or kept flooding) mid-drain
            else:
                response, shutdown = self._dispatch(server, line)
                if response is None:
                    continue  # blank line keep-alive
            try:
                self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
                self.wfile.flush()
            except OSError:
                return
            server.count_request()
            if shutdown or server.exhausted():
                server.request_shutdown()
                return

    def _dispatch(
        self, server: "LabelingServer", line: bytes
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        stripped = line.strip()
        if not stripped:
            return None, False
        try:
            text = stripped.decode("utf-8")
        except UnicodeDecodeError as exc:
            server.count_rejection("not_utf8")
            return _frame_error(f"request frame is not UTF-8: {exc}"), False
        try:
            request = json.loads(text)
        except json.JSONDecodeError as exc:
            return _frame_error(f"not JSON: {exc}"), False
        if server.draining:
            return _frame_error("server is draining"), False
        if not server.acquire_slot():
            op = request.get("op") if isinstance(request, dict) else None
            server.count_rejection(
                "overloaded", op=op if isinstance(op, str) else "?"
            )
            response = {
                "ok": False,
                "error": (
                    f"server at max in-flight requests "
                    f"({server.max_inflight}); retry with backoff"
                ),
                "error_type": "ServiceOverloadedError",
                "retryable": True,
            }
            if isinstance(request, dict) and "seq" in request:
                response["seq"] = request["seq"]
            return response, False
        try:
            return handle_request(
                server.service, request, server.lock, server.telemetry
            )
        finally:
            server.release_slot()

    def _drain_oversized(self, max_frame: int) -> bool:
        """Discard the rest of an oversized line, bounded; whether the
        connection is worth keeping (newline reached within budget)."""
        budget = 64 * max_frame
        drained = 0
        try:
            while drained <= budget:
                chunk = self.rfile.readline(1 << 16)
                if not chunk:
                    return False
                drained += len(chunk)
                if chunk.endswith(b"\n"):
                    return True
        except (socket.timeout, OSError, ValueError):
            return False
        return False


class _TCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "UnixStreamServer"):

    class _UnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
        daemon_threads = True

else:  # pragma: no cover - non-POSIX fallback
    _UnixServer = None  # type: ignore[assignment]


class LabelingServer:
    """A labeling service behind a TCP or Unix-domain stream socket.

    Parameters
    ----------
    service:
        The :class:`LabelingService` to expose.
    host, port:
        TCP bind address (``port=0`` picks an ephemeral port; see
        :attr:`address`).  Mutually exclusive with ``unix_path``.
    unix_path:
        Unix-domain socket path.
    telemetry:
        Optional telemetry; per-request ``service_request`` events.
    max_requests:
        Stop after this many responses (``None`` = run until
        ``shutdown`` or :meth:`shutdown`).  Lets smoke tests bound the
        process lifetime.
    max_frame:
        Per-request line-length bound; longer frames get a structured
        error instead of unbounded buffering.
    conn_timeout:
        Per-connection read deadline in seconds (``None`` disables):
        a connection idle past it is closed.
    max_inflight:
        Bound on requests queued or executing at once; excess requests
        are shed with a retryable ``ServiceOverloadedError`` response.
    """

    def __init__(
        self,
        service: LabelingService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        max_requests: Optional[int] = None,
        max_frame: int = 1 << 20,
        conn_timeout: Optional[float] = 60.0,
        max_inflight: int = 64,
    ):
        if max_frame < 2:
            raise ValueError(f"max_frame must be at least 2, got {max_frame}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.service = service
        self.telemetry = telemetry
        self.lock = threading.Lock()
        self.max_frame = max_frame
        self.conn_timeout = conn_timeout
        self.max_inflight = max_inflight
        self.draining = False
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._count_lock = threading.Lock()
        self._idle = threading.Condition(self._count_lock)
        self._inflight = 0
        self._requests_served = 0
        self._max_requests = max_requests
        if unix_path is not None:
            if _UnixServer is None:  # pragma: no cover
                raise ServiceError("unix sockets are not supported on this platform")
            self._server = _UnixServer(unix_path, _Handler)
            self.address: Any = unix_path
        else:
            self._server = _TCPServer((host, port), _Handler)
            self.address = self._server.server_address
        for name in (
            "service",
            "lock",
            "telemetry",
            "max_frame",
            "conn_timeout",
            "max_inflight",
            "draining",
        ):
            setattr(self._server, name, getattr(self, name))
        self._server.count_request = self.count_request  # type: ignore[attr-defined]
        self._server.count_rejection = self.count_rejection  # type: ignore[attr-defined]
        self._server.exhausted = self.exhausted  # type: ignore[attr-defined]
        self._server.request_shutdown = self.shutdown  # type: ignore[attr-defined]
        self._server.acquire_slot = self.acquire_slot  # type: ignore[attr-defined]
        self._server.release_slot = self.release_slot  # type: ignore[attr-defined]

    # -- bookkeeping shared with handlers ---------------------------------------

    def count_request(self) -> None:
        with self._count_lock:
            self._requests_served += 1

    def count_rejection(self, reason: str, op: str = "?") -> None:
        """Record a request rejected before dispatch (oversized frame,
        non-UTF-8 frame, connection deadline, load shed).

        Rejections never reach :func:`handle_request`, so this is the
        path that makes them visible: a
        ``service_requests{op=...,outcome=<reason>}`` counter increment,
        a ``service_request`` event (``ok=False``, zero dispatch
        latency, the reason as a field), and an error fed into the
        service's rolling SLO window — the error budget sees every
        failure a client sees.
        """
        tel = self.telemetry
        if tel is not None:
            counter = tel.counter("service_requests", op=op, outcome=reason)
            if counter is not None:
                counter.inc()
            if tel.wants("info"):
                tel.emit(
                    "service_request",
                    op=op,
                    ok=False,
                    latency_us=0.0,
                    reason=reason,
                )
        self.service.record_request(False, 0.0)

    def exhausted(self) -> bool:
        with self._count_lock:
            return (
                self._max_requests is not None
                and self._requests_served >= self._max_requests
            )

    def acquire_slot(self) -> bool:
        """Claim an in-flight slot without blocking; False = shed."""
        if not self._slots.acquire(blocking=False):
            return False
        with self._count_lock:
            self._inflight += 1
        return True

    def release_slot(self) -> None:
        with self._count_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()
        self._slots.release()

    @property
    def requests_served(self) -> int:
        with self._count_lock:
            return self._requests_served

    @property
    def inflight(self) -> int:
        with self._count_lock:
            return self._inflight

    # -- lifecycle --------------------------------------------------------------

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or the
        ``shutdown`` op / ``max_requests``), then close the listening
        socket so later connects are refused at once instead of queueing
        on a listener nobody accepts from."""
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self.close()

    def serve_in_thread(self) -> threading.Thread:
        """Start serving on a daemon thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the serve loop (idempotent, callable from any thread)."""
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight requests,
        then finalize the service (WAL fsync + clean-shutdown marker).

        New requests arriving on live connections during the drain get a
        structured ``server is draining`` error.  Returns whether every
        in-flight request finished within ``timeout``.
        """
        self.draining = True
        self._server.draining = True  # type: ignore[attr-defined]
        self.shutdown()
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
            drained = self._inflight == 0
        self.service.finalize()
        return drained

    def close(self) -> None:
        """Release the listening socket (idempotent)."""
        self._server.server_close()

    def __enter__(self) -> "LabelingServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
        self.close()


def serve_forever(server: LabelingServer) -> None:
    """Module-level convenience used by the CLI."""
    server.serve_forever()
