"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.analysis import executor
from repro.mesh import Mesh2D, Torus2D

#: How long a test's leftover threads and sockets get to wind down
#: after its teardown before the leak guard fails it.
_LEAK_GRACE_S = 1.0


def _socket_fds() -> set:
    """Open socket fds of this process as ``(fd, "socket:[inode]")``."""
    found = set()
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:  # no procfs: socket leaks go unchecked
        return found
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed while listing (including listdir's own fd)
            continue
        if target.startswith("socket:"):
            found.add((fd, target))
    return found


def _warm_pool_threads() -> set:
    """Threads of the process-wide warm pools, which live on by design."""
    threads = set()
    for pool in executor.shared_pools._pools.values():
        threads.add(pool._executor_manager_thread)
        threads.add(getattr(pool._call_queue, "_thread", None))
    return threads


def _leaks(threads_before: set, sockets_before: set):
    threads = set(threading.enumerate()) - threads_before - _warm_pool_threads()
    sockets = _socket_fds() - sockets_before
    return [t for t in threads if t.is_alive()], sorted(sockets)


@pytest.fixture(autouse=True)
def leak_guard():
    """Fail any test that leaves new threads or socket fds behind.

    Checked after the test's own teardown; leftovers get
    ``_LEAK_GRACE_S`` to finish before they count as leaks.
    """
    threads_before = set(threading.enumerate())
    sockets_before = _socket_fds()
    yield
    deadline = time.monotonic() + _LEAK_GRACE_S
    threads, sockets = _leaks(threads_before, sockets_before)
    while (threads or sockets) and time.monotonic() < deadline:
        time.sleep(0.01)
        threads, sockets = _leaks(threads_before, sockets_before)
    if threads or sockets:
        pytest.fail(
            f"leaked {len(threads)} thread(s) {sorted(t.name for t in threads)} "
            f"and {len(sockets)} socket fd(s) {[s for _, s in sockets]}",
            pytrace=False,
        )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic per-test generator."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def mesh8() -> Mesh2D:
    return Mesh2D(8, 8)


@pytest.fixture
def mesh12() -> Mesh2D:
    return Mesh2D(12, 12)


@pytest.fixture
def torus8() -> Torus2D:
    return Torus2D(8, 8)


@pytest.fixture(params=["mesh", "torus"])
def any_topology(request):
    """Parametrised over both topologies at 10x10."""
    return Mesh2D(10, 10) if request.param == "mesh" else Torus2D(10, 10)
