"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main workflows without writing any Python:

* ``label``     — label a mesh with random faults, print the picture and
  the summary, optionally verify every theorem and export SVG;
* ``fig5``      — run the paper's Figure-5 sweep and print the table;
* ``route``     — compare routing under the block and region models;
* ``density``   — the fault-density / percolation study;
* ``partition`` — run the open-problem cover heuristics on random faults;
* ``obs``       — validate and summarize telemetry artefacts, compare
  two run artifacts for regressions (``obs compare``), and stitch
  client/server Chrome traces onto one timeline (``obs stitch``);
* ``serve``     — run the incremental relabeling service behind an
  NDJSON socket (TCP or Unix-domain), answering fault deltas online;
  ``--wal-dir`` makes it crash-safe (write-ahead log + snapshot
  checkpoints), ``--recover`` rebuilds verified state after a crash,
  and ``--admin-port`` serves the live observability plane
  (``/metrics`` Prometheus text, ``/healthz``, ``/readyz`` gated on
  verified recovery, ``/varz`` service stats).

``label`` can record telemetry: ``--trace-out`` writes the structured
event log (JSONL), ``--metrics-out`` the metrics-registry snapshot,
``--spans-out`` a Chrome trace-event profile and ``--stats-out`` the
engine statistics; ``repro obs summarize <trace.jsonl>`` rebuilds the
per-epoch recovery report from the event log alone.

All commands accept ``--seed`` and are fully reproducible.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional

from repro._version import __version__
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _port(text: str) -> int:
    """argparse type for a TCP port: an integer in 0-65535."""
    if not text.isdigit() or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {text}")
    return int(text)


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _non_negative_int(text: str) -> int:
    """argparse type for a count that may be 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed formation of orthogonal convex polygons in "
            "mesh-connected multicomputers (Wu, IPPS 2001)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, labels: bool = True) -> None:
        """Instance flags; ``labels`` adds the labeling rule and fabric."""
        p.add_argument("--size", type=int, default=32, help="mesh side length")
        p.add_argument("--faults", type=int, default=20, help="number of faults")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        if labels:
            p.add_argument(
                "--definition",
                choices=["2a", "2b"],
                default="2b",
                help="phase-1 unsafe rule",
            )
            p.add_argument(
                "--torus", action="store_true", help="use a torus instead of a mesh"
            )
        p.add_argument(
            "--clustered",
            action="store_true",
            help="clustered faults instead of uniform random",
        )

    p_label = sub.add_parser("label", help="run the two-phase labeling")
    common(p_label)
    p_label.add_argument(
        "--backend",
        choices=["vectorized", "distributed"],
        default="vectorized",
    )
    p_label.add_argument(
        "--verify", action="store_true", help="check every Section-4 claim"
    )
    p_label.add_argument("--svg", metavar="FILE", help="write an SVG picture")
    p_label.add_argument(
        "--no-art", action="store_true", help="skip the ASCII rendering"
    )
    p_label.add_argument(
        "--fault-schedule",
        metavar="SPEC",
        help=(
            "mid-run crash schedule 'time:x,y;time:x,y;...' "
            "(distributed backend only)"
        ),
    )
    p_label.add_argument(
        "--drop-prob",
        type=float,
        default=0.0,
        help="per-message loss probability (distributed backend only)",
    )
    p_label.add_argument(
        "--dup-prob",
        type=float,
        default=0.0,
        help="per-message duplication probability (distributed backend only)",
    )
    p_label.add_argument(
        "--channel-seed",
        type=int,
        default=None,
        help="seed for the lossy channel (default: derived from --seed)",
    )
    p_label.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the structured event log as JSONL",
    )
    p_label.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics-registry snapshot as JSON",
    )
    p_label.add_argument(
        "--spans-out",
        metavar="FILE",
        help="write the profiling spans as Chrome trace-event JSON",
    )
    p_label.add_argument(
        "--stats-out",
        metavar="FILE",
        help="write the run statistics (RunStats per phase) as JSON",
    )
    p_label.add_argument(
        "--log-level",
        choices=["debug", "info"],
        default="info",
        help="event severity kept in --trace-out (debug adds per-node flips)",
    )

    p_fig5 = sub.add_parser(
        "fig5",
        help="reproduce the Figure-5 sweep",
        description=(
            "Reproduce the Figure-5 sweep.  'enabled %' averages over "
            "reducible faulty blocks (blocks with a nonfaulty node); it "
            "reads nan at fault counts where no trial produced one."
        ),
    )
    p_fig5.add_argument("--size", type=int, default=100)
    p_fig5.add_argument("--trials", type=int, default=20)
    p_fig5.add_argument("--seed", type=int, default=20010423)
    p_fig5.add_argument("--definition", choices=["2a", "2b"], default="2b")
    p_fig5.add_argument("--torus", action="store_true")
    p_fig5.add_argument(
        "--f-max",
        type=_non_negative_int,
        default=100,
        help="largest fault count in the sweep",
    )
    p_fig5.add_argument("--f-step", type=_positive_int, default=10)
    p_fig5.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (same results for any value)",
    )

    p_route = sub.add_parser("route", help="compare routing under both models")
    common(p_route)
    p_route.add_argument("--pairs", type=_positive_int, default=200)

    p_density = sub.add_parser("density", help="fault-density study")
    p_density.add_argument("--size", type=int, default=48)
    p_density.add_argument("--trials", type=int, default=6)
    p_density.add_argument("--seed", type=int, default=0)
    p_density.add_argument(
        "--densities",
        type=float,
        nargs="+",
        default=[0.0, 0.01, 0.02, 0.05, 0.1],
    )

    p_part = sub.add_parser("partition", help="open-problem cover heuristics")
    common(p_part, labels=False)

    p_serve = sub.add_parser(
        "serve", help="run the incremental relabeling service"
    )
    p_serve.add_argument("--size", type=int, default=64, help="mesh side length")
    p_serve.add_argument(
        "--faults", type=int, default=0, help="initial number of faults"
    )
    p_serve.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_serve.add_argument(
        "--definition", choices=["2a", "2b"], default="2b",
        help="phase-1 unsafe rule",
    )
    p_serve.add_argument(
        "--torus", action="store_true", help="use a torus instead of a mesh"
    )
    p_serve.add_argument(
        "--clustered",
        action="store_true",
        help="clustered initial faults instead of uniform random",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host"
    )
    p_serve.add_argument(
        "--port",
        type=_port,
        default=0,
        help="TCP bind port (0 picks an ephemeral port, printed on start)",
    )
    p_serve.add_argument(
        "--unix",
        metavar="PATH",
        help="serve on a Unix-domain socket instead of TCP",
    )
    p_serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="stop after this many responses (for smoke tests)",
    )
    p_serve.add_argument(
        "--wal-dir",
        metavar="DIR",
        help="write-ahead-log directory: log every applied delta before "
        "acking and checkpoint snapshots there (enables crash recovery)",
    )
    p_serve.add_argument(
        "--snapshot-every",
        type=int,
        default=1024,
        metavar="N",
        help="checkpoint a snapshot (and rotate the WAL) every N "
        "effective deltas (with --wal-dir; 0 disables)",
    )
    p_serve.add_argument(
        "--fsync-every",
        type=int,
        default=0,
        metavar="N",
        help="fsync the WAL every N appends (with --wal-dir; 0 = only "
        "at checkpoints and shutdown)",
    )
    p_serve.add_argument(
        "--recover",
        action="store_true",
        help="rebuild state from --wal-dir (snapshot + WAL replay, "
        "verified bit-for-bit against from-scratch labeling) instead of "
        "starting fresh",
    )
    p_serve.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the structured event log as JSONL",
    )
    p_serve.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics-registry snapshot as JSON",
    )
    p_serve.add_argument(
        "--spans-out",
        metavar="FILE",
        help="write the profiling spans as Chrome trace-event JSON",
    )
    p_serve.add_argument(
        "--log-level",
        choices=["debug", "info"],
        default="info",
        help="event severity kept in --trace-out",
    )
    p_serve.add_argument(
        "--flush-every",
        type=int,
        default=64,
        metavar="N",
        help="flush --trace-out every N events so the log stays "
        "readable while the server runs (0 = flush only at shutdown)",
    )
    p_serve.add_argument(
        "--admin-port",
        type=_port,
        default=None,
        metavar="PORT",
        help="serve the observability admin endpoint (/metrics /healthz "
        "/readyz /varz) on this port (0 picks an ephemeral port, "
        "printed on start); omitted = no admin plane",
    )
    p_serve.add_argument(
        "--admin-host",
        default="127.0.0.1",
        help="admin endpoint bind host",
    )

    p_obs = sub.add_parser("obs", help="telemetry artefact tools")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_summ = obs_sub.add_parser(
        "summarize", help="rebuild run/epoch reports from an event log"
    )
    p_summ.add_argument("trace", help="event-log JSONL file (--trace-out)")
    p_summ.add_argument(
        "--json",
        metavar="FILE",
        help="also write the summary as JSON (comparable with "
        "'repro obs compare')",
    )
    p_summ.add_argument(
        "--slo-latency-us",
        type=float,
        default=50_000.0,
        help="latency objective (us) the trace's service requests are "
        "graded against",
    )
    p_summ.add_argument(
        "--slo-quantile",
        type=float,
        default=0.99,
        help="quantile the latency objective constrains",
    )
    p_summ.add_argument(
        "--slo-availability",
        type=float,
        default=0.999,
        help="target success fraction for the error budget",
    )
    p_val = obs_sub.add_parser(
        "validate", help="strictly validate a telemetry artefact"
    )
    p_val.add_argument("file", help="event JSONL or Chrome trace JSON")
    p_val.add_argument(
        "--kind",
        choices=["auto", "events", "spans"],
        default="auto",
        help="artefact type (auto: .jsonl = events, otherwise spans)",
    )
    p_cmp = obs_sub.add_parser(
        "compare",
        help="regression report between two run artifacts "
        "(BENCH_perf.json, summarize --json, metrics snapshots)",
    )
    p_cmp.add_argument("a", help="baseline artifact (JSON)")
    p_cmp.add_argument("b", help="candidate artifact (JSON)")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative change beyond which a directional metric is "
        "flagged (default 0.10)",
    )
    p_cmp.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit nonzero when any metric regressed beyond the threshold",
    )
    p_cmp.add_argument(
        "--all",
        action="store_true",
        help="list informational (direction-less) metrics too",
    )
    p_stitch = obs_sub.add_parser(
        "stitch",
        help="merge Chrome trace exports (e.g. client + server of one "
        "serve run) onto one timeline",
    )
    p_stitch.add_argument(
        "traces", nargs="+", help="Chrome trace JSON files (--spans-out)"
    )
    p_stitch.add_argument(
        "-o", "--out", required=True, metavar="FILE",
        help="where to write the stitched trace",
    )

    return parser


def _topology(args):
    from repro.mesh import Mesh2D, Torus2D

    cls = Torus2D if args.torus else Mesh2D
    return cls(args.size, args.size)


def _faults(args, shape):
    import numpy as np

    from repro.faults import clustered, uniform_random

    rng = np.random.default_rng(args.seed)
    if args.clustered:
        return clustered(shape, args.faults, rng, clusters=3, spread=2.0)
    return uniform_random(shape, args.faults, rng)


def _definition(args):
    from repro.core import SafetyDefinition

    return SafetyDefinition(args.definition)


def _telemetry_from_args(args, force_metrics: bool = False, span_name: str = "repro"):
    """Build a command's telemetry from its output flags.

    Returns ``(telemetry, finish)`` where ``finish()`` closes the sinks
    and writes the metrics/span artefacts; both are ``None`` when no
    telemetry flag was given, so the untraced path stays a no-op.
    ``force_metrics`` attaches a registry even without ``--metrics-out``
    (the serve admin plane needs live series to scrape); ``span_name``
    labels the recorder's process row in stitched traces.
    """
    from repro.obs import JSONLSink, MetricsRegistry, SpanRecorder, Telemetry

    if not (args.trace_out or args.metrics_out or args.spans_out or force_metrics):
        return None, None
    sinks = []
    if args.trace_out:
        flush_every = getattr(args, "flush_every", 0)
        sinks.append(
            JSONLSink(
                args.trace_out,
                flush_every=flush_every if flush_every else None,
            )
        )
    metrics = MetricsRegistry() if (args.metrics_out or force_metrics) else None
    spans = SpanRecorder(span_name) if args.spans_out else None
    telemetry = Telemetry(
        sinks=sinks, metrics=metrics, spans=spans, log_level=args.log_level
    )

    def finish() -> None:
        telemetry.close()
        if args.trace_out:
            print(f"wrote {args.trace_out}")
        if args.metrics_out:
            metrics.write(args.metrics_out)
            print(f"wrote {args.metrics_out}")
        if args.spans_out:
            spans.write(args.spans_out)
            print(f"wrote {args.spans_out}")

    return telemetry, finish


def _write_stats(path: str, result) -> None:
    """Export the run's statistics (``--stats-out``)."""
    import json

    payload = {
        "summary": result.summary(),
        "stats_phase1": (
            result.stats_phase1.to_dict() if result.stats_phase1 else None
        ),
        "stats_phase2": (
            result.stats_phase2.to_dict() if result.stats_phase2 else None
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _cmd_label(args) -> int:
    import numpy as np

    from repro.core import label_mesh, theorems
    from repro.fabric import ChannelModel
    from repro.faults import FaultSchedule
    from repro.viz import render_result, svg_of_result

    schedule = None
    if args.fault_schedule:
        try:
            schedule = FaultSchedule.parse(args.fault_schedule)
        except Exception as exc:
            print(f"label: bad --fault-schedule: {exc}", file=sys.stderr)
            return 2
    channel = None
    if args.drop_prob or args.dup_prob:
        seed = args.channel_seed if args.channel_seed is not None else args.seed + 9
        channel = ChannelModel(
            drop_prob=args.drop_prob,
            dup_prob=args.dup_prob,
            rng=np.random.default_rng(seed),
            max_drops=1_000,
        )
    if (schedule or channel is not None) and args.backend != "distributed":
        print(
            "label: --fault-schedule/--drop-prob/--dup-prob need "
            "--backend distributed",
            file=sys.stderr,
        )
        return 2

    topo = _topology(args)
    faults = _faults(args, topo.shape)
    telemetry, finish_telemetry = _telemetry_from_args(args)
    result = label_mesh(
        topo, faults, _definition(args), backend=args.backend,
        schedule=schedule, channel=channel, telemetry=telemetry,
    )
    if finish_telemetry is not None:
        finish_telemetry()
    if args.stats_out:
        _write_stats(args.stats_out, result)

    if not args.no_art and args.size <= 60:
        print(render_result(result))
        print()
    for key, value in result.summary().items():
        print(f"{key:>16}: {value}")
    stats1 = result.stats_phase1
    if stats1 is not None and stats1.epochs:
        print()
        print(
            f"phase 1 ran {len(stats1.epochs)} epochs "
            f"({stats1.recovery_rounds} recovery rounds, "
            f"{stats1.dropped_messages} drops, "
            f"{stats1.duplicated_messages} duplicates, "
            f"{stats1.heartbeats} heartbeats):"
        )
        for ep in stats1.epochs:
            crashed = (
                "initial" if not ep.crashed
                else "crash " + " ".join(f"{x},{y}" for x, y in ep.crashed)
            )
            print(
                f"  t={ep.at_time:>4} {crashed}: {ep.rounds} rounds, "
                f"{ep.messages} messages"
            )
    if args.verify:
        print()
        failures = 0
        for outcome in theorems.check_all(result):
            mark = "ok " if outcome.holds else "FAIL"
            print(f"[{mark}] {outcome.claim}")
            failures += 0 if outcome.holds else 1
        if failures:
            return 1
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg_of_result(result))
        print(f"\nwrote {args.svg}")
    return 0


def _cmd_fig5(args) -> int:
    from repro.analysis import run_fig5
    from repro.mesh import Mesh2D, Torus2D

    topo_cls = Torus2D if args.torus else Mesh2D
    curve = run_fig5(
        _definition(args),
        topology=topo_cls(args.size, args.size),
        f_values=range(0, args.f_max + 1, args.f_step),
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
    )
    print(curve.as_table())
    return 0


def _cmd_route(args) -> int:
    import numpy as np

    from repro.analysis import format_table
    from repro.core import label_mesh
    from repro.routing import (
        BFSRouter,
        FaultModelView,
        FRingRouter,
        MinimalRouter,
        SafetyLevelRouter,
        WallRouter,
        XYRouter,
        evaluate_router,
        sample_pairs,
    )

    topo = _topology(args)
    if topo.wraps:
        print("route: torus routing is not supported; use a mesh", file=sys.stderr)
        return 2
    faults = _faults(args, topo.shape)
    result = label_mesh(topo, faults, _definition(args))
    views = {
        "blocks": FaultModelView.from_blocks(result),
        "regions": FaultModelView.from_regions(result),
    }
    rng = np.random.default_rng(args.seed + 1)
    pairs = sample_pairs(views["blocks"], args.pairs, rng)
    rows = []
    for view_name, view in views.items():
        routers = [XYRouter(view), SafetyLevelRouter(view), WallRouter(view),
                   MinimalRouter(view), BFSRouter(view)]
        if view_name == "blocks":
            routers.insert(2, FRingRouter(view))
        for router in routers:
            m = evaluate_router(router, pairs)
            rows.append(
                [
                    view_name,
                    m.router,
                    view.num_enabled,
                    f"{100 * m.delivery_rate:.1f}%",
                    f"{m.mean_detour:.2f}",
                ]
            )
    print(
        format_table(
            ["model", "router", "enabled", "delivered", "detour"],
            rows,
            title=f"{args.size}x{args.size} mesh, {len(faults)} faults, "
            f"{args.pairs} packets",
        )
    )
    return 0


def _cmd_density(args) -> int:
    from repro.analysis import density_study, format_table
    from repro.mesh import Mesh2D

    points = density_study(
        Mesh2D(args.size, args.size),
        densities=args.densities,
        trials=args.trials,
        seed=args.seed,
    )
    rows = [
        [
            p.density,
            p.f,
            p.largest_block.mean,
            100 * p.imprisoned_fraction.mean,
            100 * p.freed_fraction.mean,
            p.enabled_components.mean,
        ]
        for p in points
    ]
    print(
        format_table(
            ["density", "f", "largest blk", "imprisoned %", "freed %", "#comps"],
            rows,
            title=f"Density study on a {args.size}x{args.size} mesh",
        )
    )
    return 0


def _cmd_partition(args) -> int:
    from repro.analysis import format_table
    from repro.geometry import connect_orthoconvex
    from repro.partition import cluster_cover, exact_cover, guillotine_cover

    faults = _faults(args, (args.size, args.size))
    if not faults:
        print("no faults to cover")
        return 0
    single = connect_orthoconvex(faults.cells)
    rows = [["single polygon", 1, len(single) - len(faults)]]
    for name, fn in (
        ("cluster", cluster_cover),
        ("guillotine", guillotine_cover),
    ):
        cover = fn(faults.cells)
        rows.append([name, cover.num_polygons, cover.num_nonfaulty])
    try:
        cover = exact_cover(faults.cells)
        rows.append(["exact", cover.num_polygons, cover.num_nonfaulty])
    except Exception:
        rows.append(["exact", "-", "instance too large"])
    print(
        format_table(
            ["strategy", "#polygons", "nonfaulty kept"],
            rows,
            title=f"Covers of {len(faults)} faults on {args.size}x{args.size}",
        )
    )
    return 0


def _cmd_serve(args) -> int:
    import os
    import signal

    from repro.errors import DurabilityError
    from repro.service import LabelingServer, LabelingService, list_state

    if args.recover and not args.wal_dir:
        raise ValueError("--recover needs --wal-dir")
    if not args.recover and args.wal_dir and list_state(args.wal_dir):
        raise ValueError(
            f"{args.wal_dir} already holds durability state; "
            "pass --recover to replay it or point --wal-dir at a "
            "fresh directory"
        )
    topo = _topology(args)
    faults = _faults(args, topo.shape) if args.faults else None
    telemetry, finish_telemetry = _telemetry_from_args(
        args, force_metrics=args.admin_port is not None, span_name="server"
    )
    snapshot_every = args.snapshot_every if args.snapshot_every > 0 else None
    fsync_every = args.fsync_every if args.fsync_every > 0 else None
    if args.recover:
        try:
            service = LabelingService.recover(
                args.wal_dir,
                topology=topo,
                definition=_definition(args),
                telemetry=telemetry,
                snapshot_every=snapshot_every,
                fsync_every=fsync_every,
            )
        except DurabilityError as exc:
            print(f"serve: recovery failed: {exc}", file=sys.stderr)
            return 1
        recovery = service.recovery
        print(
            f"recovered version {service.version} from {args.wal_dir} "
            f"(snapshot v{recovery.snapshot_version}, "
            f"{recovery.replayed} WAL records replayed, "
            f"{'clean' if recovery.clean else 'unclean'} prior shutdown, "
            f"verified bit-for-bit)"
        )
    else:
        service = LabelingService(
            topo,
            _definition(args),
            faults=faults,
            telemetry=telemetry,
            wal_dir=args.wal_dir,
            snapshot_every=snapshot_every if args.wal_dir else None,
            fsync_every=fsync_every if args.wal_dir else None,
        )
    if args.unix and os.path.exists(args.unix):
        os.unlink(args.unix)
    server = LabelingServer(
        service,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        telemetry=telemetry,
        max_requests=args.max_requests,
    )
    kind = "torus" if topo.wraps else "mesh"
    durable = f", wal={args.wal_dir}" if args.wal_dir else ""
    print(
        f"serving {args.size}x{args.size} {kind} "
        f"(definition {args.definition}, {service.engine.num_faults} faults"
        f"{durable})"
    )
    if args.unix:
        print(f"listening on unix:{server.address}", flush=True)
    else:
        host, port = server.address
        print(f"listening on {host}:{port}", flush=True)
    admin = None
    if args.admin_port is not None:
        from repro.obs import AdminServer

        def varz():
            # stats() iterates the service's rolling deques; the server
            # lock serializes against handler threads appending to them.
            with server.lock:
                return service.stats()

        def ready() -> bool:
            return not server.draining

        admin = AdminServer(
            metrics=telemetry.metrics if telemetry is not None else None,
            varz=varz,
            ready=ready,
            host=args.admin_host,
            port=args.admin_port,
        )
        admin_host, admin_port = admin.start()
        print(f"admin on {admin_host}:{admin_port}", flush=True)
    # SIGTERM drains gracefully: stop accepting, finish in-flight
    # requests, fsync the WAL and leave the clean-shutdown marker.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: server.shutdown())
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.drain(timeout=10.0)
        if admin is not None:
            admin.close()
        server.close()
        if args.unix and os.path.exists(args.unix):
            os.unlink(args.unix)
        if finish_telemetry is not None:
            finish_telemetry()
    print(f"served {server.requests_served} requests")
    return 0


def _cmd_obs(args) -> int:
    from repro.errors import ObservabilityError

    if args.obs_command == "summarize":
        import json

        from repro.obs import SLOConfig, summarize_trace
        from repro.obs.summarize import format_summary

        try:
            slo_config = SLOConfig(
                latency_objective_us=args.slo_latency_us,
                latency_quantile=args.slo_quantile,
                availability_target=args.slo_availability,
            )
            summary = summarize_trace(args.trace, slo_config=slo_config)
            print(format_summary(summary))
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"wrote {args.json}")
        except (OSError, ValueError, ObservabilityError) as exc:
            print(f"obs summarize: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.obs_command == "validate":
        kind = args.kind
        if kind == "auto":
            kind = "events" if args.file.endswith(".jsonl") else "spans"
        try:
            if kind == "events":
                from repro.obs import validate_jsonl

                count = validate_jsonl(args.file)
                print(f"{args.file}: {count} events ok")
            else:
                from repro.obs import load_chrome_trace

                data = load_chrome_trace(args.file)
                print(f"{args.file}: {len(data['traceEvents'])} trace events ok")
        except (OSError, ObservabilityError) as exc:
            print(f"obs validate: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.obs_command == "compare":
        from repro.obs import compare_runs, format_compare, load_run_artifact

        try:
            deltas = compare_runs(
                load_run_artifact(args.a),
                load_run_artifact(args.b),
                threshold=args.threshold,
            )
        except (OSError, ValueError, ObservabilityError) as exc:
            print(f"obs compare: {exc}", file=sys.stderr)
            return 1
        print(
            format_compare(
                deltas, label_a=args.a, label_b=args.b, show_all=args.all
            )
        )
        if args.fail_on_regression and any(d.regressed for d in deltas):
            return 1
        return 0
    if args.obs_command == "stitch":
        import json

        from repro.obs import load_chrome_trace, stitch_chrome_traces

        try:
            stitched = stitch_chrome_traces(
                [load_chrome_trace(path) for path in args.traces]
            )
        except (OSError, ObservabilityError) as exc:
            print(f"obs stitch: {exc}", file=sys.stderr)
            return 1
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(stitched, fh, indent=2)
            fh.write("\n")
        print(
            f"wrote {args.out} ({len(stitched['traceEvents'])} events "
            f"from {len(args.traces)} traces)"
        )
        return 0
    raise AssertionError(f"unknown obs command {args.obs_command!r}")


_COMMANDS = {
    "label": _cmd_label,
    "fig5": _cmd_fig5,
    "route": _cmd_route,
    "density": _cmd_density,
    "partition": _cmd_partition,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Invalid input the library rejects (a ``ValueError`` or any
    :class:`~repro.errors.ReproError`) becomes a one-line message on
    stderr and exit code 2, never a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ReproError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
