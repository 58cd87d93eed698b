"""Chaos tooling for the serving layer: seeded faults between and inside
the client, the wire, and the write-ahead log.

Two instruments, one purpose — proving the durability layer's claims
under adversarial conditions:

* :class:`CrashPlan` simulates a process kill at an exact byte boundary
  inside the WAL or a snapshot write.  It plugs into the ``crash_hook``
  seam of :class:`~repro.service.wal.WriteAheadLog` /
  :class:`~repro.service.wal.SnapshotStore` and raises
  :class:`SimulatedCrash` at the n-th occurrence of a named point
  (``append.mid`` tears a record in half on disk, ``snapshot.mid``
  abandons a half-written temp file).  The durability property suite
  enumerates these points under hypothesis and asserts recovery is
  bit-for-bit sound at every one of them.

* :class:`ChaosProxy` is a seeded TCP relay that sits between a
  :class:`~repro.service.client.ServiceClient` and a
  :class:`~repro.service.server.LabelingServer`, mangling NDJSON frames
  in flight: dropping a request (and severing the connection, as a
  failed link would), truncating a frame mid-byte, splitting it across
  TCP segments, delaying it, or duplicating it.  Duplication is only
  applied to frames carrying an idempotency ``"seq"`` — exactly the
  frames the dedup machinery must protect — and the client's
  sequence-echo filtering plus retry loop must converge to exactly-once
  application regardless.

Both are deterministic given their seed, so every chaos failure is
replayable.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import Counter
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = ["ChaosProxy", "CrashPlan", "SimulatedCrash"]


class SimulatedCrash(RuntimeError):
    """Raised by a :class:`CrashPlan` to model the process dying.

    Deliberately *not* a :class:`~repro.errors.ReproError`: production
    error handling must never catch and absorb a crash the chaos suite
    injected, exactly as it could not absorb a real ``SIGKILL``.
    """


class CrashPlan:
    """Kill the process at the n-th occurrence of a named crash point.

    Pass as ``crash_hook`` to the WAL/snapshot writers::

        plan = CrashPlan("append.mid", occurrence=3)
        wal = WriteAheadLog(d, crash_hook=plan)

    The third record append will then tear mid-record.  ``point=None``
    never fires (a convenient no-chaos control).  After firing once the
    plan is spent — recovery code reusing the same directory must not
    crash again.
    """

    def __init__(self, point: Optional[str], occurrence: int = 1):
        if occurrence < 1:
            raise ValueError(f"occurrence must be positive, got {occurrence}")
        self.point = point
        self.occurrence = occurrence
        self.fired = False
        self.seen: Counter = Counter()

    def __call__(self, point: str) -> None:
        self.seen[point] += 1
        if (
            not self.fired
            and point == self.point
            and self.seen[point] >= self.occurrence
        ):
            self.fired = True
            raise SimulatedCrash(f"simulated kill at {point} #{self.seen[point]}")


class ChaosProxy:
    """A seeded fault-injecting TCP relay for the NDJSON protocol.

    Parameters
    ----------
    backend:
        ``(host, port)`` of the real :class:`LabelingServer`.
    seed:
        Seed for the fault RNG; identical seeds replay identical chaos.
    drop_prob:
        Probability a client frame is dropped *and the connection
        severed* (the client sees a dead link and must reconnect/retry).
    truncate_prob:
        Probability a frame is forwarded truncated, then the connection
        severed (models a link dying mid-frame; the server's framing
        must reject the partial line, not apply it).
    split_prob:
        Probability a frame is forwarded in two TCP segments (must be
        invisible: stream framing has to reassemble).
    dup_prob:
        Probability a frame carrying ``"seq"`` is forwarded twice (the
        server must dedup; the client must skip the stale extra
        response).
    delay_prob / max_delay_s:
        Probability and bound of a per-frame forwarding delay.
    """

    def __init__(
        self,
        backend: Tuple[str, int],
        seed: int = 0,
        drop_prob: float = 0.0,
        truncate_prob: float = 0.0,
        split_prob: float = 0.0,
        dup_prob: float = 0.0,
        delay_prob: float = 0.0,
        max_delay_s: float = 0.01,
        host: str = "127.0.0.1",
    ):
        self.backend = backend
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        self.drop_prob = drop_prob
        self.truncate_prob = truncate_prob
        self.split_prob = split_prob
        self.dup_prob = dup_prob
        self.delay_prob = delay_prob
        self.max_delay_s = max_delay_s
        self.stats: Dict[str, int] = {
            "frames": 0, "dropped": 0, "truncated": 0,
            "split": 0, "duplicated": 0, "delayed": 0,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._closing = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._thread = thread
        return thread

    def close(self) -> None:
        self._closing = True
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down first does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        self.serve_in_thread()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- relay -----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client_sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._relay_connection, args=(client_sock,), daemon=True
            ).start()

    def _relay_connection(self, client_sock: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self.backend, timeout=10)
        except OSError:
            client_sock.close()
            return
        # Responses flow back unmangled: the protocol's failure model is
        # a lossy *request* path plus connection death; response-side
        # duplication is produced by duplicating requests.
        pump = threading.Thread(
            target=self._pump_plain, args=(upstream, client_sock), daemon=True
        )
        pump.start()
        try:
            rfile = client_sock.makefile("rb")
            for line in rfile:
                if not self._forward_frame(upstream, line):
                    break
        except OSError:
            pass
        finally:
            _close_pair(client_sock, upstream)

    def _pump_plain(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                chunk = src.recv(65536)
                if not chunk:
                    break
                dst.sendall(chunk)
        except OSError:
            pass
        finally:
            _close_pair(src, dst)

    def _forward_frame(self, upstream: socket.socket, frame: bytes) -> bool:
        """Apply seeded chaos to one client frame; False severs the link."""
        with self._rng_lock:
            rolls = self._rng.random(5)
            delay = float(self._rng.random() * self.max_delay_s)
        self.stats["frames"] += 1
        if rolls[0] < self.drop_prob:
            self.stats["dropped"] += 1
            return False
        if rolls[1] < self.truncate_prob and len(frame) > 2:
            self.stats["truncated"] += 1
            upstream.sendall(frame[: len(frame) // 2])
            return False
        if rolls[2] < self.delay_prob:
            self.stats["delayed"] += 1
            threading.Event().wait(delay)
        if rolls[3] < self.split_prob and len(frame) > 2:
            self.stats["split"] += 1
            half = len(frame) // 2
            upstream.sendall(frame[:half])
            threading.Event().wait(0.001)
            upstream.sendall(frame[half:])
        else:
            upstream.sendall(frame)
        if rolls[4] < self.dup_prob and _carries_seq(frame):
            self.stats["duplicated"] += 1
            upstream.sendall(frame)
        return True


def _carries_seq(frame: bytes) -> bool:
    """Whether a frame is an idempotent, sequence-numbered request."""
    if b'"seq"' not in frame:
        return False
    try:
        return "seq" in json.loads(frame)
    except ValueError:
        return False


def _close_pair(a: socket.socket, b: socket.socket) -> None:
    for sock in (a, b):
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
