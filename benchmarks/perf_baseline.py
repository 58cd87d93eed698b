#!/usr/bin/env python
"""Machine-readable performance baseline: ``python benchmarks/perf_baseline.py``.

Times the hot paths this repository optimises —

* phase-1 / phase-2 fixpoints, the bool-grid reference loops vs the
  bit-packed dense Jacobi kernels (on the acceptance workload: a
  500x500 mesh with 100 clustered faults),
* the end-to-end pipeline, reference geometry + the bool-grid reference
  kernels vs the default fast path (packed kernels + vectorized
  extraction), with a
  breakdown attributing time to kernels vs extraction vs theorem
  verification,
* the fabric engine, full stepping vs active-set stepping,
* a Figure-5-style sweep slice, serial vs process-parallel on the warm
  chunked executor (min-of-repeats on both legs, pool pre-warmed so the
  figure reports the amortized steady state),
* the telemetry guard overhead: the same pipeline with telemetry off
  (``telemetry=None``) vs a null-sink telemetry exercising every emit
  site — the off path must stay within the 2% acceptance budget,
* the incremental relabeling service: a stream of single-fault
  inject/repair deltas absorbed online vs relabeling from scratch after
  every event (per-update latency, updates/sec throughput, and the
  speedup the ``incremental`` CI job gates on), plus the admin-plane
  cost: the same stream while a live ``/metrics`` + ``/varz`` endpoint
  is scraped concurrently (budget: <= 3% throughput loss),
* the batched traffic engine: the scalar per-packet reference engine
  vs the numpy column engine on identical traffic (the ``routing`` CI
  gate, also runnable alone via ``--gate-routing``; results must be
  bit-for-bit equal), the routing payoff of the region views over the
  rectangle faulty-block view under contending traffic, the scalar
  wormhole oracle at the 1e5-packet scale, and (full mode) the
  million-packet 256x256 saturation campaign comparing the rectangle
  view against Def 2a / Def 2b regions,

verifies that every fast path reproduces the reference results exactly,
and writes ``BENCH_perf.json`` at the repository root so successive PRs
leave a machine-readable perf trajectory.  ``--quick`` shrinks every
workload for CI smoke runs (same schema, same checks).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro._version import __version__
from repro.analysis.executor import shared_pools
from repro.analysis.sweep import sweep
from repro.core.blocks import extract_blocks, extract_blocks_reference
from repro.core.distributed import distributed_enabled, distributed_unsafe
from repro.core.enabling import enabled_fixpoint, enabled_fixpoint_reference
from repro.core.pipeline import label_mesh
from repro.core.regions import extract_regions, extract_regions_reference
from repro.core.safety import unsafe_fixpoint, unsafe_fixpoint_reference
from repro.core.status import SafetyDefinition
from repro.core.theorems import check_all
from repro.faults.generators import clustered, uniform_random
from repro.mesh.topology import Mesh2D
from repro.network import (
    BatchedNetwork,
    WormholeNetwork,
    injection_sweep,
    synthetic_traffic,
    uniform_traffic,
    xy_hops,
)
from repro.obs.telemetry import Telemetry
from repro.routing import FaultModelView


def _best_of(fn, repeats: int = 3):
    """Best wall-clock of ``repeats`` runs, plus the last return value."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _pair(name: str, slow_s: float, fast_s: float, extra=None) -> dict:
    entry = {
        "baseline_s": round(slow_s, 6),
        "optimized_s": round(fast_s, 6),
        "speedup": round(slow_s / fast_s, 3) if fast_s > 0 else None,
    }
    if extra:
        entry.update(extra)
    print(
        f"{name:>28}: {slow_s * 1e3:9.2f} ms -> {fast_s * 1e3:9.2f} ms "
        f"({entry['speedup']}x)"
    )
    return entry


def _sweep_metric(params, rng):
    """Module-level so the parallel sweep can pickle it."""
    size, f = params
    topo = Mesh2D(size, size)
    faults = uniform_random(topo.shape, int(f), rng)
    result = label_mesh(topo, faults, SafetyDefinition.DEF_2B)
    return {
        "rounds1": float(result.rounds_phase1),
        "rounds2": float(result.rounds_phase2),
        "enabled_ratio": float(result.enabled_ratio),
    }


def bench_kernels(size: int, f: int, repeats: int) -> dict:
    """Reference vs packed fixpoints on clustered faults (phase 1 and 2)."""
    topo = Mesh2D(size, size)
    faults = clustered(
        topo.shape, f, np.random.default_rng(20010423), clusters=3, spread=2.0
    )
    faulty = faults.mask

    t_ref1, (unsafe_r, r1_r) = _best_of(
        lambda: unsafe_fixpoint_reference(topo, faulty), repeats
    )
    t_dense1, (unsafe_d, r1_d) = _best_of(
        lambda: unsafe_fixpoint(topo, faulty), repeats
    )
    assert np.array_equal(unsafe_d, unsafe_r) and r1_d == r1_r, (
        "packed phase-1 diverged from reference"
    )

    t_ref2, (en_r, r2_r) = _best_of(
        lambda: enabled_fixpoint_reference(topo, faulty, unsafe_d), repeats
    )
    t_dense2, (en_d, r2_d) = _best_of(
        lambda: enabled_fixpoint(topo, faulty, unsafe_d), repeats
    )
    assert np.array_equal(en_d, en_r) and r2_d == r2_r, (
        "packed phase-2 diverged from reference"
    )

    # End-to-end: everything slow (the bool-grid reference kernels +
    # reference per-cell geometry) vs the default fast path (packed
    # kernels + vectorized union-find geometry) — the Amdahl headline of
    # this repository.
    def slow_pipeline():
        unsafe, _ = unsafe_fixpoint_reference(topo, faulty)
        enabled, _ = enabled_fixpoint_reference(topo, faulty, unsafe)
        return (
            unsafe,
            enabled,
            extract_blocks_reference(unsafe, faulty),
            extract_regions_reference(unsafe & ~enabled, faulty),
        )

    t_pipe_slow, (slow_unsafe, slow_enabled, slow_blocks, slow_regions) = _best_of(
        slow_pipeline, repeats
    )
    t_pipe_fast, fast_result = _best_of(lambda: label_mesh(topo, faults), repeats)
    assert np.array_equal(slow_unsafe, fast_result.labels.unsafe) and np.array_equal(
        slow_enabled, fast_result.labels.enabled
    ), "fast pipeline diverged from reference"
    assert slow_blocks == fast_result.blocks, (
        "vectorized block extraction diverged from reference"
    )
    assert slow_regions == fast_result.regions, (
        "vectorized region extraction diverged from reference"
    )

    # Breakdown: where one fast-path run actually spends its time.
    disabled = fast_result.labels.disabled
    t_extract_ref, _ = _best_of(
        lambda: (
            extract_blocks_reference(unsafe_d, faulty),
            extract_regions_reference(disabled, faulty),
        ),
        repeats,
    )
    t_extract_vec, _ = _best_of(
        lambda: (
            extract_blocks(unsafe_d, faulty),
            extract_regions(disabled, faulty),
        ),
        repeats,
    )
    t_verify, outcomes = _best_of(lambda: check_all(fast_result), repeats)
    assert all(o.holds for o in outcomes), "theorem verification failed"

    return {
        "mesh": f"{size}x{size}",
        "faults": f,
        "fault_model": "clustered",
        "rounds_phase1": r1_d,
        "rounds_phase2": r2_d,
        "phase1": _pair("phase1 reference vs packed", t_ref1, t_dense1),
        "phase2": _pair("phase2 reference vs packed", t_ref2, t_dense2),
        "pipeline": _pair("pipeline slow vs fast path", t_pipe_slow, t_pipe_fast),
        "breakdown": {
            "kernels_s": round(t_dense1 + t_dense2, 6),
            "extraction": _pair(
                "extraction ref vs vectorized", t_extract_ref, t_extract_vec
            ),
            "verification_s": round(t_verify, 6),
        },
    }


def bench_fabric(size: int, f: int, repeats: int) -> dict:
    """Fabric engine: full stepping vs active-set stepping, both phases."""
    topo = Mesh2D(size, size)
    faults = clustered(
        topo.shape, f, np.random.default_rng(42), clusters=3, spread=2.0
    )

    def run(active: bool):
        unsafe, s1, _ = distributed_unsafe(topo, faults, active_set=active)
        enabled, s2, _ = distributed_enabled(topo, faults, unsafe, active_set=active)
        return unsafe, enabled, s1, s2

    t_full, (u_full, e_full, s1_full, s2_full) = _best_of(lambda: run(False), repeats)
    t_active, (u_act, e_act, s1_act, s2_act) = _best_of(lambda: run(True), repeats)
    assert np.array_equal(u_full, u_act) and np.array_equal(e_full, e_act), (
        "active-set engine diverged from full stepping"
    )
    assert (
        s1_full.rounds == s1_act.rounds
        and s2_full.rounds == s2_act.rounds
        and s1_full.messages_per_round == s1_act.messages_per_round
        and s2_full.messages_per_round == s2_act.messages_per_round
    ), "active-set engine statistics diverged from full stepping"

    return {
        "mesh": f"{size}x{size}",
        "faults": f,
        "fault_model": "clustered",
        "engine": _pair(
            "fabric full vs active-set",
            t_full,
            t_active,
            extra={"rounds_phase1": s1_full.rounds, "rounds_phase2": s2_full.rounds},
        ),
    }


def _naive_parallel_sweep(values, trials: int, seed: int, jobs: int):
    """The pre-executor ``jobs > 1`` behavior: a fresh process pool per
    sweep, one inter-process round trip per cell.  Kept here as the
    benchmark baseline for the amortized executor."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.analysis.sweep import _eval_cell

    tasks = [
        (_sweep_metric, value, vi, ti, trials, seed)
        for vi, value in enumerate(values)
        for ti in range(trials)
    ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_eval_cell, tasks))


def bench_sweep(size: int, f_values, trials: int, jobs: int, repeats: int) -> dict:
    """Sweep slice: naive cold-pool parallelism vs the warm executor.

    The headline pair is the old ``jobs > 1`` implementation (fresh
    pool per sweep, per-cell dispatch — the thing that made parallel
    sweeps *slower* than serial) against the amortized chunked
    executor, which calibrates chunk sizes, reuses one warm pool, and
    falls back to serial whenever parallelism cannot pay for itself
    (including on single-CPU boxes, where it never can).  ``vs_serial``
    records the executor leg against plain serial — the "jobs > 1 is
    never slower" guarantee.  All legs are timed min-of-repeats (the
    old single-shot numbers mixed pool spawn into the comparison) and
    must produce identical results.
    """
    values = [(size, f) for f in f_values]

    # Warm up (page cache, numpy dispatch) so the first timed leg is
    # not penalised, then interleave the serial and executor legs —
    # they are expected to be near-equal on boxes where the executor
    # falls back, and interleaving keeps clock drift out of the ratio.
    serial = sweep(values, _sweep_metric, trials=trials, seed=7)
    shared_pools.get(jobs)
    t_serial = t_exec = float("inf")
    parallel = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        serial = sweep(values, _sweep_metric, trials=trials, seed=7)
        t_serial = min(t_serial, time.perf_counter() - t0)
        t0 = time.perf_counter()
        parallel = sweep(values, _sweep_metric, trials=trials, seed=7, jobs=jobs)
        t_exec = min(t_exec, time.perf_counter() - t0)
    t_naive, _ = _best_of(
        lambda: _naive_parallel_sweep(values, trials, 7, jobs), repeats
    )

    assert serial == parallel, "parallel sweep diverged from serial"
    entry = _pair("sweep cold-pool vs executor", t_naive, t_exec)
    entry["serial_s"] = round(t_serial, 6)
    entry["vs_serial"] = round(t_serial / t_exec, 3) if t_exec > 0 else None
    print(f"{'sweep executor vs serial':>28}: {entry['vs_serial']}x")
    return {
        "mesh": f"{size}x{size}",
        "f_values": list(f_values),
        "trials": trials,
        "jobs": jobs,
        "sweep": entry,
    }


def bench_telemetry(size: int, f: int, repeats: int) -> dict:
    """Pipeline with telemetry off vs routed into a null sink.

    The off leg is the acceptance criterion: instrumentation must cost
    the untraced pipeline < 2% (pure guard branches).  The null-sink leg
    measures the full emit path (event construction + fan-out) for
    reference; it is allowed to cost more.
    """
    topo = Mesh2D(size, size)
    faults = clustered(
        topo.shape, f, np.random.default_rng(20010423), clusters=3, spread=2.0
    )

    # Interleave the two legs so clock drift between measurement blocks
    # cannot masquerade as overhead; a percent-level delta needs more
    # samples than the headline benchmarks.
    t_off = t_null = float("inf")
    ref = traced = None
    for _ in range(max(3 * repeats, 11)):
        t0 = time.perf_counter()
        ref = label_mesh(topo, faults)
        t_off = min(t_off, time.perf_counter() - t0)
        t0 = time.perf_counter()
        traced = label_mesh(topo, faults, telemetry=Telemetry.null())
        t_null = min(t_null, time.perf_counter() - t0)
    assert np.array_equal(ref.labels.unsafe, traced.labels.unsafe) and np.array_equal(
        ref.labels.enabled, traced.labels.enabled
    ), "telemetry changed the pipeline's labels"

    overhead = (t_null - t_off) / t_off if t_off > 0 else 0.0
    print(
        f"{'pipeline off vs null-sink':>28}: {t_off * 1e3:9.2f} ms -> "
        f"{t_null * 1e3:9.2f} ms ({100 * overhead:+.1f}%)"
    )
    return {
        "mesh": f"{size}x{size}",
        "faults": f,
        "fault_model": "clustered",
        "telemetry_off_s": round(t_off, 6),
        "telemetry_null_sink_s": round(t_null, 6),
        "null_sink_overhead": round(overhead, 4),
    }


def bench_incremental(size: int, f: int, updates: int, repeats: int) -> dict:
    """Online fault deltas through the service vs from-scratch labeling.

    A warm :class:`~repro.service.LabelingService` on an f-fault mesh
    absorbs a stream of single-fault updates (alternating inject and
    repair of the same cells, so every repeat starts from the same
    state).  The baseline is one full ``label_mesh`` of the standing
    fault set — what answering a single delta used to cost.  The stream
    leaves the fault set where it started, and the final planes are
    verified bit-for-bit against the from-scratch fixpoint.
    """
    from repro.service import LabelingService

    topo = Mesh2D(size, size)
    rng = np.random.default_rng(20010423)
    faults = uniform_random(topo.shape, f, rng)
    service = LabelingService(topo, faults=faults)

    # Pre-draw the update stream: distinct initially-nonfaulty cells,
    # each injected and then repaired (updates = 2 * cells events).
    free = np.flatnonzero(~faults.mask)
    cells = rng.choice(free, size=updates // 2, replace=False)
    stream = []
    for flat in cells:
        c = (int(flat) // size, int(flat) % size)
        stream.append(("inject", c))
        stream.append(("repair", c))

    t_scratch, scratch = _best_of(lambda: label_mesh(topo, faults), repeats)

    def run_stream():
        update = service.update
        for op, c in stream:
            if op == "inject":
                update(inject=(c,))
            else:
                update(repair=(c,))

    t_stream, _ = _best_of(run_stream, repeats)
    assert service.verify_against_scratch(), (
        "incremental service diverged from the from-scratch fixpoint"
    )
    assert np.array_equal(
        service.engine.labels.unsafe, scratch.labels.unsafe
    ) and np.array_equal(service.engine.labels.enabled, scratch.labels.enabled), (
        "service stream did not return to the baseline state"
    )

    n = len(stream)
    per_update = t_stream / n
    entry = _pair(
        "relabel scratch vs delta",
        t_scratch,
        per_update,
        extra={
            "updates": n,
            "updates_per_sec": round(n / t_stream, 1),
            "stream_s": round(t_stream, 6),
        },
    )
    print(
        f"{'service throughput':>28}: {entry['updates_per_sec']:,.0f} updates/sec"
    )

    # WAL-on leg: the identical stream through a durable service (every
    # delta hits the write-ahead log before the ack; checkpoints rotate
    # the log).  The interesting number is ``relative`` — how much of
    # the in-memory throughput survives durability.  Afterwards the WAL
    # directory is recovered and verified bit-for-bit, so the leg also
    # exercises the recovery path at benchmark scale.
    import tempfile

    from repro.service.recovery import recover_state

    with tempfile.TemporaryDirectory(prefix="repro-wal-bench-") as wal_dir:
        durable_service = LabelingService(
            topo,
            faults=faults,
            wal_dir=wal_dir,
            snapshot_every=max(512, updates // 4),
        )

        def run_stream_durable():
            update = durable_service.update
            for op, c in stream:
                if op == "inject":
                    update(inject=(c,))
                else:
                    update(repair=(c,))

        t_durable, _ = _best_of(run_stream_durable, repeats)
        durable_service.finalize()
        wal_stats = durable_service.stats()["wal"]
        recovered = recover_state(wal_dir)
        assert recovered.verified, "WAL recovery failed bit-for-bit check"
        assert recovered.engine.version == durable_service.version, (
            "recovered WAL state is not at the acknowledged version"
        )

    durable_ups = n / t_durable
    durable_entry = {
        "updates": n,
        "updates_per_sec": round(durable_ups, 1),
        "stream_s": round(t_durable, 6),
        "relative": round(durable_ups / (n / t_stream), 4),
        "wal_appended": wal_stats["appended"],
        "wal_bytes": wal_stats["bytes_written"],
        "snapshots": wal_stats["snapshots"],
        "recovery_replayed": recovered.replayed,
        "recovery_s": round(recovered.elapsed_s, 6),
    }
    print(
        f"{'durable throughput':>28}: {durable_ups:,.0f} updates/sec "
        f"({durable_entry['relative']:.2f}x in-memory, "
        f"{wal_stats['snapshots']} snapshots)"
    )
    # Admin-plane leg: the same stream through a metrics-traced service,
    # with and without a live AdminServer over the same registry being
    # scraped from a background thread at ~20 Hz — two orders of
    # magnitude hotter than any real scrape cadence, so the measured
    # cost upper-bounds production.  Bare and scraped runs are
    # *interleaved* (min of each across rounds) so machine drift hits
    # both legs equally — a sequential A-then-B timing of ~0.1 s streams
    # cannot resolve the 3% acceptance budget (relative >= 0.97).  The
    # scraper holds one persistent keep-alive connection: a fresh
    # connection per scrape makes ThreadingHTTPServer spawn a handler
    # thread per scrape, and on a single-CPU host that thread churn
    # (not the scrape work itself, which is ~1.7 ms) convoys the update
    # loop through the GIL.  Both legs share one registry, so the final
    # scrape is also checked against the snapshot exactly (the CI
    # live-scrape invariant).
    import http.client
    import threading

    from repro.obs import MetricsRegistry, Telemetry
    from repro.obs.exposition import AdminServer, parse_prometheus

    registry = MetricsRegistry()
    traced_service = LabelingService(
        topo, faults=faults, telemetry=Telemetry(metrics=registry)
    )

    def run_stream_traced():
        update = traced_service.update
        for op, c in stream:
            if op == "inject":
                update(inject=(c,))
            else:
                update(repair=(c,))

    scrapes = {"count": 0}
    scraping = threading.Event()
    stop_scraping = threading.Event()

    def scraper(host, port):
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            while not stop_scraping.is_set():
                if not scraping.is_set():
                    scraping.wait(0.01)
                    continue
                conn.request("GET", "/metrics")
                conn.getresponse().read()
                conn.request("GET", "/varz")
                conn.getresponse().read()
                scrapes["count"] += 1
                stop_scraping.wait(0.05)
        finally:
            conn.close()

    run_stream_traced()  # warm the traced path before timing either leg
    t_traced = t_admin = float("inf")
    with AdminServer(metrics=registry, varz=traced_service.stats) as admin:
        host, port = admin.address
        thread = threading.Thread(target=scraper, args=(host, port), daemon=True)
        thread.start()
        try:
            for _ in range(max(repeats, 10)):
                scraping.clear()
                time.sleep(0.02)  # let an in-flight scrape drain
                t0 = time.perf_counter()
                run_stream_traced()
                t_traced = min(t_traced, time.perf_counter() - t0)
                scraping.set()
                t0 = time.perf_counter()
                run_stream_traced()
                t_admin = min(t_admin, time.perf_counter() - t0)
            scraping.clear()
        finally:
            stop_scraping.set()
            thread.join(timeout=5)
        # The live scrape must agree exactly with the registry snapshot.
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("GET", "/metrics")
            scraped = parse_prometheus(conn.getresponse().read().decode("utf-8"))
        finally:
            conn.close()
        snap = registry.snapshot()
        assert {k: float(v) for k, v in snap["counters"].items()} == scraped[
            "counters"
        ], "live /metrics scrape disagrees with the registry snapshot"

    admin_ups = n / t_admin
    admin_entry = {
        "updates": n,
        "updates_per_sec": round(admin_ups, 1),
        "stream_s": round(t_admin, 6),
        "relative": round(admin_ups / (n / t_traced), 4),
        "scrapes": scrapes["count"],
    }
    print(
        f"{'admin-scraped throughput':>28}: {admin_ups:,.0f} updates/sec "
        f"({admin_entry['relative']:.2f}x unscraped, "
        f"{scrapes['count']} scrapes)"
    )

    stats = service.stats()
    return {
        "mesh": f"{size}x{size}",
        "faults": f,
        "fault_model": "uniform",
        "service": entry,
        "durable": durable_entry,
        "admin": admin_entry,
        "cache": stats["cache"],
    }


def _routing_gate_workload(size: int, faults: int, packets: int, rate: float):
    """The routing-gate pairs' fixed workload.

    Clustered faults (seed 7) on a ``size`` mesh, blocks view, and a
    uniform batched workload (seed 3).  The two engines share only the
    kernel's scalar ``decide_one``: the reference engine calls it per
    packet per cycle, the batched engine routes each packet once in
    array form (``decide``) and then arbitrates links per cycle.  The
    gate times both kernels: XY, bound to a speedup, and the detour
    kernel, whose scalar leg is the slowest.
    """
    topo = Mesh2D(size, size)
    fset = clustered(
        topo.shape, faults, np.random.default_rng(7), clusters=5, spread=1.6
    )
    view = FaultModelView.from_blocks(label_mesh(topo, fset))
    traffic = synthetic_traffic(
        view, packets, np.random.default_rng(3), injection_rate=rate
    )
    return view, traffic


def _routing_gate_pair(
    size: int, faults: int, packets: int, rate: float, repeats: int, kernel: str = "xy"
):
    """Time reference vs batched on the gate workload; verify equality.

    The reference engine runs once (it is the slow leg by an order of
    magnitude); the batched engine takes best-of-``repeats`` because at
    sub-second runtimes machine noise is the dominant error term.
    """
    view, traffic = _routing_gate_workload(size, faults, packets, rate)
    t0 = time.perf_counter()
    slow = BatchedNetwork(view, kernel=kernel, engine="reference").run(traffic)
    t_ref = time.perf_counter() - t0
    t_batched, fast = _best_of(
        lambda: BatchedNetwork(view, kernel=kernel).run(traffic), repeats
    )
    equal = fast.equals(slow)
    return t_ref, t_batched, fast, equal


def bench_routing(
    gate_size: int,
    gate_packets: int,
    payoff_packets: int,
    worm_packets: int,
    campaign,
    repeats: int,
) -> dict:
    """Batched traffic engine: gate pair, payoff deltas, oracle, campaign."""
    gate_faults, gate_rate = 100, 5000.0

    # -- gate: scalar reference engine vs batched numpy engine --------
    t_ref, t_batched, fast, equal = _routing_gate_pair(
        gate_size, gate_faults, gate_packets, gate_rate, repeats
    )
    assert equal, "batched engine diverged from the scalar reference"
    gate = _pair(
        "routing scalar vs batched",
        t_ref,
        t_batched,
        extra={
            "mesh": f"{gate_size}x{gate_size}",
            "faults": gate_faults,
            "packets": gate_packets,
            "kernel": "xy",
            "rate": gate_rate,
            "delivery_rate": round(fast.delivery_rate, 6),
            "packets_per_sec": round(gate_packets / t_batched),
            "equal": True,
        },
    )

    # -- payoff: region views vs the rectangle block view -------------
    # Identical contending traffic (drawn from the intersection of the
    # enabled sets) through the rectangle-detour kernel under all three
    # views; the region views' extra enabled nodes turn directly into
    # accepted throughput and delivered latency.
    topo = Mesh2D(64, 64)
    fset = clustered(
        topo.shape, 100, np.random.default_rng(13), clusters=4, spread=2.0
    )
    result_2a = label_mesh(topo, fset, SafetyDefinition.DEF_2A)
    result_2b = label_mesh(topo, fset, SafetyDefinition.DEF_2B)
    views = {
        "rect-fb": FaultModelView.from_blocks(result_2b),
        "regions-2a": FaultModelView.from_regions(result_2a),
        "regions-2b": FaultModelView.from_regions(result_2b),
    }
    inter = np.ones(topo.shape, dtype=bool)
    for v in views.values():
        inter &= v.enabled
    traffic = synthetic_traffic(
        FaultModelView(topo, inter),
        payoff_packets,
        np.random.default_rng(3),
        injection_rate=50.0,
    )
    payoff = {"mesh": "64x64", "faults": 100, "packets": payoff_packets, "views": {}}
    for name, v in views.items():
        res = BatchedNetwork(v, kernel="detour").run(traffic)
        payoff["views"][name] = {
            "enabled": v.num_enabled,
            "delivery_rate": round(res.delivery_rate, 4),
            "throughput": round(res.throughput, 3),
            "mean_latency": round(res.mean_latency, 2),
            "p95_latency": res.p95_latency,
            "cycles": res.cycles,
        }
        print(
            f"{'payoff ' + name:>28}: thr {res.throughput:7.2f} "
            f"lat {res.mean_latency:6.1f} delivery {res.delivery_rate:.3f}"
        )

    # -- scalar wormhole oracle at the 1e5-packet scale ----------------
    # The flit-level simulator stays the bit-level oracle; after the
    # cursor/deque/insort fixes it must take this packet count in
    # linear time.
    worm_mesh = Mesh2D(32, 32)
    worm_view = FaultModelView(worm_mesh, np.ones(worm_mesh.shape, dtype=bool))
    worms = uniform_traffic(
        worm_view, worm_packets, np.random.default_rng(15),
        packet_length=2, injection_rate=4.0,
    )
    t0 = time.perf_counter()
    worm_res = WormholeNetwork(worm_mesh, xy_hops(), num_vcs=2).run(worms)
    t_worm = time.perf_counter() - t0
    assert worm_res.delivery_rate > 0.999, "wormhole oracle lost packets"
    wormhole = {
        "mesh": "32x32",
        "packets": worm_packets,
        "seconds": round(t_worm, 6),
        "packets_per_sec": round(worm_packets / t_worm),
        "delivery_rate": round(worm_res.delivery_rate, 6),
    }
    print(
        f"{'wormhole oracle 1e5-scale':>28}: {worm_packets} worms in "
        f"{t_worm:.2f} s ({wormhole['packets_per_sec']:,} pkts/s)"
    )

    report = {
        "gate": gate,
        "payoff": payoff,
        "wormhole": wormhole,
    }

    # -- full mode: the million-packet 256x256 saturation campaign -----
    if campaign:
        camp_size, camp_packets = campaign
        topo = Mesh2D(camp_size, camp_size)
        fset = clustered(
            topo.shape, 800, np.random.default_rng(7), clusters=12, spread=2.5
        )
        result_2a = label_mesh(topo, fset, SafetyDefinition.DEF_2A)
        result_2b = label_mesh(topo, fset, SafetyDefinition.DEF_2B)
        views = {
            "rect-fb": FaultModelView.from_blocks(result_2b),
            "regions-2a": FaultModelView.from_regions(result_2a),
            "regions-2b": FaultModelView.from_regions(result_2b),
        }
        inter = np.ones(topo.shape, dtype=bool)
        for v in views.values():
            inter &= v.enabled
        shared = FaultModelView(topo, inter)
        rates = [200.0, 800.0, 3200.0]
        campaign_report = {
            "mesh": f"{camp_size}x{camp_size}",
            "faults": 800,
            "packets_per_point": camp_packets,
            "rates": rates,
            "views": {},
        }
        for name, v in views.items():
            t0 = time.perf_counter()
            curve = injection_sweep(
                v,
                rates,
                camp_packets,
                seed=5,
                kernel="detour",
                endpoint_view=shared,
                view_label=name,
                drain_factor=1.5,
            )
            t_curve = time.perf_counter() - t0
            campaign_report["views"][name] = {
                "enabled": v.num_enabled,
                "seconds": round(t_curve, 2),
                "saturation_rate": curve.saturation_rate,
                "saturation_throughput": round(curve.saturation_throughput, 2),
                "points": [
                    {
                        "rate": p.rate,
                        "delivery_rate": round(p.delivery_rate, 4),
                        "throughput": round(p.throughput, 2),
                        "mean_latency": round(p.mean_latency, 2),
                        "p99_latency": p.p99_latency,
                        "stuck": p.stuck,
                    }
                    for p in curve.points
                ],
            }
            print(
                f"{'campaign ' + name:>28}: knee {curve.saturation_rate} "
                f"thr {curve.saturation_throughput:8.2f} ({t_curve:.1f} s)"
            )
        report["campaign"] = campaign_report
    return report


#: The CI gate: the batched engine must beat the scalar reference by at
#: least this factor on the gate workload (bit-for-bit equal results).
_ROUTING_GATE_MIN_SPEEDUP = 20.0

#: Packets in the gate's detour leg: fewer than the XY leg's, because the
#: detour kernel's scalar leg is the slowest (~30 s on a 2-CPU box).
_ROUTING_GATE_DETOUR_PACKETS = 60_000


def gate_routing(
    size: int = 160, packets: int = 150_000, faults: int = 100, rate: float = 5000.0
) -> int:
    """The ``--gate-routing`` CI mode: quick pass/fail, no JSON.

    The XY leg must beat the scalar engine by the gate factor.  The
    detour leg, on ``_ROUTING_GATE_DETOUR_PACKETS`` packets, must only
    agree; it prints its speedup.
    """
    status = 0
    for kernel, n, need in (
        ("xy", packets, _ROUTING_GATE_MIN_SPEEDUP),
        ("detour", _ROUTING_GATE_DETOUR_PACKETS, None),
    ):
        t_ref, t_batched, _, equal = _routing_gate_pair(size, faults, n, rate, 3, kernel)
        if not equal:
            print(f"gate-routing: FAIL ({kernel}: batched diverged from the scalar reference)")
            return 1
        speedup = t_ref / t_batched
        print(
            f"gate-routing: {kernel} {size}x{size} ({faults} faults, {n} packets) "
            f"scalar {t_ref:.2f} s vs batched {t_batched:.2f} s -> {speedup:.1f}x"
            + (f" (need >= {need}x)" if need else "")
        )
        if need and speedup < need:
            print(f"gate-routing: FAIL ({kernel}: speedup below gate)")
            status = 1
    if not status:
        print("gate-routing: OK")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads for CI smoke runs"
    )
    parser.add_argument(
        "--jobs", type=int, default=2, help="workers for the parallel sweep leg"
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_perf.json"),
        help="output path (default: BENCH_perf.json at the repo root)",
    )
    parser.add_argument(
        "--gate-routing",
        action="store_true",
        help="CI mode: run only the batched-vs-scalar routing gate",
    )
    args = parser.parse_args(argv)

    if args.gate_routing:
        return gate_routing()

    if args.quick:
        kernel_size, kernel_f, repeats = 300, 80, 2
        fabric_size, fabric_f = 20, 24
        sweep_size, sweep_fs, sweep_trials, sweep_repeats = 96, [0, 16, 32], 6, 3
        incr_size, incr_f, incr_updates = 256, 40, 2000
        route_size, route_packets = 160, 150_000
        route_payoff, route_worms, route_campaign = 60_000, 20_000, None
    else:
        kernel_size, kernel_f, repeats = 500, 100, 3
        fabric_size, fabric_f = 32, 48
        sweep_size, sweep_fs, sweep_trials, sweep_repeats = (
            100,
            [0, 25, 50, 75, 100],
            10,
            5,
        )
        incr_size, incr_f, incr_updates = 1000, 100, 20000
        route_size, route_packets = 160, 150_000
        route_payoff, route_worms = 100_000, 100_000
        route_campaign = (256, 1_000_000)

    report = {
        "schema": 1,
        "generated_by": "benchmarks/perf_baseline.py",
        "version": __version__,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "kernels": bench_kernels(kernel_size, kernel_f, repeats),
        "fabric": bench_fabric(fabric_size, fabric_f, repeats),
        "sweep": bench_sweep(
            sweep_size, sweep_fs, sweep_trials, args.jobs, sweep_repeats
        ),
        "telemetry": bench_telemetry(kernel_size, kernel_f, repeats),
        "incremental": bench_incremental(incr_size, incr_f, incr_updates, repeats),
        "routing": bench_routing(
            route_size, route_packets, route_payoff, route_worms,
            route_campaign, repeats,
        ),
    }

    out = pathlib.Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
