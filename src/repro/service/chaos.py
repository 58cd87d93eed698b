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
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Set, Tuple

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
        # Relay/pump threads and the sockets they block on, so close()
        # can sever every live connection and join its threads.
        self._lock = threading.Lock()
        self._relays: List[threading.Thread] = []
        self._conns: Set[socket.socket] = set()

    # -- lifecycle -------------------------------------------------------------

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._thread = thread
        return thread

    def close(self) -> None:
        # _spawn starts no relay once closing is set.  Shutting the live
        # connections down wakes their relay and pump threads, and the
        # server sees EOF on its side of each; the relay threads close
        # them (see _relay_connection).
        with self._lock:
            self._closing = True
            _shutdown(*self._conns)
            relays = list(self._relays)
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down first does.
        _shutdown(self._listener)
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._listener.close()
        deadline = time.monotonic() + 5
        for thread in relays:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

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
                return  # listener shut down
            if self._spawn(self._relay_connection, client_sock) is None:
                client_sock.close()
                return

    def _spawn(self, target, *args: Any) -> Optional[threading.Thread]:
        """Start a tracked relay thread; ``None`` once :meth:`close` began."""
        with self._lock:
            if self._closing:
                return None
            self._relays = [t for t in self._relays if t.is_alive()]
            # Started under the lock, so close() never joins a thread
            # that has not started.
            thread = threading.Thread(target=target, args=args, daemon=True)
            thread.start()
            self._relays.append(thread)
        return thread

    def _relay_connection(self, client_sock: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self.backend, timeout=10)
        except OSError:
            client_sock.close()
            return
        with self._lock:
            self._conns.update((client_sock, upstream))
        # Responses flow back unmangled: the protocol's failure model is
        # a lossy *request* path plus connection death; response-side
        # duplication is produced by duplicating requests.
        pump = self._spawn(self._pump_plain, upstream, client_sock)
        try:
            if pump is not None:
                with client_sock.makefile("rb") as rfile:
                    for line in rfile:
                        if not self._forward_frame(upstream, line):
                            break
        except OSError:
            pass
        finally:
            # This thread alone closes the pair, and only once the pump
            # has stopped using it: a socket closed under a thread still
            # blocked on it can have its fd reused by a new connection,
            # leaving that thread waiting on the wrong socket.
            _shutdown(client_sock, upstream)
            if pump is not None:
                pump.join()
            with self._lock:
                self._conns.difference_update((client_sock, upstream))
            client_sock.close()
            upstream.close()

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
            _shutdown(src, dst)  # wakes the relay's read of the client

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
        # Counted before the frame leaves: the server's answer may reach
        # the client, and a reader of the stats, before this thread runs on.
        duplicate = rolls[4] < self.dup_prob and _carries_seq(frame)
        if duplicate:
            self.stats["duplicated"] += 1
        if rolls[3] < self.split_prob and len(frame) > 2:
            self.stats["split"] += 1
            half = len(frame) // 2
            upstream.sendall(frame[:half])
            threading.Event().wait(0.001)
            upstream.sendall(frame[half:])
        else:
            upstream.sendall(frame)
        if duplicate:
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


def _shutdown(*socks: socket.socket) -> None:
    """``shutdown(SHUT_RDWR)`` each socket: unlike ``close()``, it wakes
    a thread blocked in ``recv()``/``accept()`` on it and sends the peer
    EOF."""
    for sock in socks:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # never connected, or already shut down
            pass
