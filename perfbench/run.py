#!/usr/bin/env python3
"""The repository's benchmark: four closed-loop workloads, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {fig5,label,serve,traffic} \\
        --seed N --seconds S --trace {0,1}

Set-up (interpreter start, imports, input generation, program state) is
timed in fresh child interpreters of this script; the timed loop then
repeats the workload's closed-loop unit for about ``--seconds``, and
the outputs are checked outside the timed region.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` alternates untraced and traced
units and prints the per-layer metrics, a self-time table and the
tracing overhead.  Every time is scaled to one reference host speed,
measured by a probe that uses nothing from the program.  The last line
of standard output is the JSON result.  See ``perfbench/README.md`` for
the workloads, the metric definitions and why times are scaled.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Fresh interpreters whose set-up time is measured; the median is reported.
SETUP_RUNS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed
    operation (it prints ``ready`` there, then tears down and exits)."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return elapsed


def trimmed_mean(values, cut: float = 0.1) -> float:
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k : len(ordered) - k])


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest() -> str:
    """sha256 over the program's source files (the checkout may not be
    a git repository, so this identifies the code under test)."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                sizes[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return sizes


def filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and (path + "/").startswith(parts[1].rstrip("/") + "/"):
                    if len(parts[1]) >= len(best):
                        best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def environment() -> dict:
    import numpy

    wal_fs = filesystem_of(ROOT)
    return {
        "cpus_effective": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "caches": cache_sizes(),
        "wal": {"dir": ".perfbench_tmp", "fs": wal_fs, "tmpfs": wal_fs == "tmpfs"},
        "platform": platform.platform(),
    }


def run_loop(workload, seconds: float, tracer) -> dict:
    """Repeat the workload's unit until the next one would end well past
    ``seconds``, probing the host's speed around each unit.  With a
    tracer, units alternate untraced / traced."""
    walls = {False: [], True: []}
    begin = time.perf_counter()
    count = 0
    workload.probe()
    while True:
        traced = tracer is not None and count % 2 == 1
        if traced:
            workload.instrument(tracer)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.iteration"):
                    workload.iterate(tracer)
            else:
                workload.iterate(None)
        finally:
            if traced:
                tracer.restore()
        dt = time.perf_counter() - t0
        workload.probe()
        walls[traced].append(dt)
        count += 1
        if tracer is not None and count < 2:
            continue
        if time.perf_counter() - begin + dt / 2 > seconds:
            return walls


def layer_metrics(workload, factor, counts, spans, table, traced_units, overhead, import_s):
    """Per-layer metrics from the traced units' counters and span
    durations (already scaled by the run's speed ``factor``).  ``_s``
    totals and counts are per traced unit; ``_us`` / ``_ms`` are means
    per call."""
    n = max(traced_units, 1)

    def per(key):
        return counts.get(key, 0) / n

    def per_s(span):
        return sum(spans.get(span, ())) / n

    def mean(span):
        values = spans.get(span)
        return statistics.mean(values) if values else 0.0

    hits, misses = counts.get("incremental.cache_hits", 0), counts.get("incremental.cache_misses", 0)
    hops, stalls = counts.get("batched.packet_hops", 0), counts.get("batched.stalls", 0)
    cycles = counts.get("batched.cycles", 0)
    overhead_us = 0.0
    if spans.get("server.update") and spans.get("service.apply_batch"):
        overhead_us = 1e6 * (
            statistics.median(spans["server.update"]) - statistics.median(spans["service.apply_batch"])
        )
    return {
        "import.repro_s": (factor * import_s, "s"),
        "service.boot_s": (factor * workload.setup_layers.get("service.boot_s", 0.0), "s"),
        "routing.kernel_build_s": (factor * workload.setup_layers.get("routing.kernel_build_s", 0.0), "s"),
        "faults.generate_s": (per_s("faults.generate"), "s"),
        "core.phase1_s": (per_s("core.phase1"), "s"),
        "core.phase2_s": (per_s("core.phase2"), "s"),
        "core.phase1_rounds": (per("core.phase1_rounds"), "count"),
        "core.phase2_rounds": (per("core.phase2_rounds"), "count"),
        "core.dense_calls": (per("core.dense_calls"), "count"),
        "core.frontier_calls": (per("core.frontier_calls"), "count"),
        "geometry.extract_blocks_s": (per_s("geometry.extract_blocks"), "s"),
        "geometry.extract_regions_s": (per_s("geometry.extract_regions"), "s"),
        "geometry.blocks": (per("geometry.blocks"), "count"),
        "geometry.regions": (per("geometry.regions"), "count"),
        "geometry.mask_bytes": (per("geometry.mask_bytes"), "B"),
        "theorems.check_all_s": (per_s("theorems.check_all"), "s"),
        "analysis.aggregate_s": (factor * table.get("analysis.run_fig5", {}).get("self_s", 0.0) / n, "s"),
        "incremental.apply_us": (1e6 * mean("incremental.apply"), "us"),
        "incremental.cache_hits": (per("incremental.cache_hits"), "count"),
        "incremental.cache_misses": (per("incremental.cache_misses"), "count"),
        "incremental.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "incremental.blocks_changed": (per("incremental.blocks_changed"), "count"),
        "incremental.snapshot_ms": (1e3 * mean("incremental.snapshot"), "ms"),
        "wal.append_us": (1e6 * mean("wal.append"), "us"),
        "wal.appends": (len(spans.get("wal.append", ())) / n, "count"),
        "wal.bytes": (per("wal.bytes"), "B"),
        "wal.checkpoints": (len(spans.get("wal.checkpoint", ())) / n, "count"),
        "wal.checkpoint_ms": (1e3 * mean("wal.checkpoint"), "ms"),
        "server.roundtrip_overhead_us": (overhead_us, "us"),
        "traffic.generate_s": (per_s("traffic.generate"), "s"),
        "routing.decide_s": (per_s("routing.decide"), "s"),
        "batched.run_s": (per_s("batched.run"), "s"),
        "batched.cycles": (per("batched.cycles"), "count"),
        "batched.packet_hops": (per("batched.packet_hops"), "count"),
        "batched.stalls": (per("batched.stalls"), "count"),
        "batched.stall_ratio": (stalls / (hops + stalls) if hops + stalls else 0.0, "ratio"),
        "batched.us_per_cycle": (1e6 * sum(spans["batched.run"]) / cycles if cycles else 0.0, "us"),
        "batched.delivered": (per("batched.delivered"), "count"),
        "batched.dropped": (per("batched.dropped"), "count"),
        "batched.stuck": (per("batched.stuck"), "count"),
        "trace.overhead_pct": (overhead, "%"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    try:
        import repro  # noqa: F401
        from workloads import WORKLOADS, SpeedProbe
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    if args.setup_only:
        workload = cls(args.seed, ROOT)
        print("ready", flush=True)
        workload.close()
        return 0

    tracer = None
    if args.trace:
        from repro.obs.spans import SpanRecorder
        from tracing import Tracer

        tracer = Tracer(SpanRecorder(f"perfbench-{args.workload}"))

    workload = cls(args.seed, ROOT)
    setup_raw = []
    try:
        for _ in range(SETUP_RUNS):
            workload.probe()
            setup_raw.append(measure_setup(args))
        workload.check_before()
        workload.reset()
        walls = run_loop(workload, args.seconds, tracer)
        workload.check_after()
    finally:
        workload.close()

    # One speed factor per run.  Probes are spread through set-up and the
    # loop, so their (trimmed) mean is the run's average host speed.
    probes_ms = [1e3 * v for v in workload.probes]
    factor = 1e3 * SpeedProbe.REFERENCE_S / trimmed_mean(probes_ms)

    def scaled(stream):
        return [factor * dt for dt in workload.samples.get(stream, ())]

    work = sum(amount for _, amount in workload.done)
    raw_work_s = sum(dt for dt, _ in workload.done)
    ops_ms = [1e3 * v for v in scaled(workload.op_stream)]
    named = {
        "setup_s": (factor * statistics.median(setup_raw), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (workload.failed / max(workload.attempted, 1), "ratio"),
        workload.work_metric: (work / (factor * raw_work_s), "1/s"),
    }
    for name, (stream, q, to_unit, unit) in workload.latency_metrics.items():
        named[name] = (to_unit * nearest_rank(scaled(stream), q), unit)
    generic = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "work_per_s": named[workload.work_metric],
        "op_p50_ms": (nearest_rank(ops_ms, 50), "ms"),
    }
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  units: {len(walls[False]) + len(walls[True])}, {workload.op_stream} samples: {len(ops_ms)}, "
          f"work: {work:.0f} in {raw_work_s:.3f} s wall ({work / raw_work_s:.4f}/s unscaled)")
    print(f"  host speed probe: trimmed mean {trimmed_mean(probes_ms):.3f} ms over {len(probes_ms)} probes "
          f"(min {min(probes_ms):.3f}, max {max(probes_ms):.3f}); times scaled by {factor:.4f}")
    print(f"  setup samples (s, unscaled): {', '.join(f'{dt:.4f}' for dt in setup_raw)}")
    print(f"  attempted={workload.attempted} failed={workload.failed} retries={workload.retries}"
          f" pin={workload.pin_status}")
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:14.4f} {unit}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")
    os.makedirs(OUT, exist_ok=True)
    for problem in workload.problems:
        print(f"  CHECK FAILED: {problem}")

    if tracer is not None:
        from tracing import durations, format_self_times, self_times

        events = tracer.events()
        table = self_times(events)
        overhead = 100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        spans = {name: [factor * dt for dt in dts] for name, dts in durations(events).items()}
        metrics = layer_metrics(
            workload, factor, tracer.counts, spans, table, len(walls[True]), overhead, import_s
        )
        print(format_self_times(table))
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:16.6f} {unit}")
        tracer.recorder.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.json"))
    else:
        metrics = generic

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_samples_s": setup_raw,
        "speed_factor": factor,
        "speed_probes_ms": probes_ms,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": workload.attempted,
        "failed": workload.failed,
        "retries": workload.retries,
        "problems": workload.problems,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
