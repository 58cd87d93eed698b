"""The four closed-loop workloads.

Each workload builds its inputs from the seed in ``__init__`` (set-up),
runs one closed-loop unit per :meth:`Workload.iterate` call (the next
operation starts only when the previous one returned), and checks its
outputs in ``check_before`` / ``check_after``, which run outside the
timed region.  ``instrument`` installs the per-layer span wrappers for a
traced unit; the layers are timed from outside, through the public
functions and objects each one exposes.

Labeling results and service snapshots form reference cycles, so the
loops collect cyclic garbage after their largest operations (untimed):
peak RSS then reflects live data rather than collector timing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Tuple

import numpy as np

import repro.analysis.fig5 as fig5_mod
import repro.core.pipeline as pipeline
from repro.core.enabling import enabled_fixpoint
from repro.core.safety import unsafe_fixpoint
from repro.core.status import SafetyDefinition
from repro.core.theorems import check_all
from repro.faults.generators import clustered, uniform_random
from repro.mesh.topology import Mesh2D
from repro.network.batched import BatchedNetwork
from repro.network.traffic import BatchedTraffic, synthetic_traffic
from repro.routing import FaultModelView
from repro.service import LabelingService
from repro.service.client import ServiceClient
from repro.service.recovery import recover_state
from repro.service.server import LabelingServer

DEFS = (SafetyDefinition.DEF_2A, SafetyDefinition.DEF_2B)
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def load_pins() -> dict:
    """Expected outputs per workload and seed, written by ``pin.py``."""
    try:
        with open(PINS_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class SpeedProbe:
    """A fixed kernel that uses nothing from the program under test.

    The 2-CPU host this benchmark was built on changes speed by up to
    ~1.6x in phases of a few seconds (host contention; CPU time shows it
    as much as wall time), so whole runs differed by up to ±20%.  A run
    times this kernel between its operations; the 10%-trimmed mean over
    the run measures the host's average speed during it, and the run's
    times are scaled to the speed at which the kernel takes
    ``REFERENCE_S``.  The mix — an
    interpreter loop, small numpy calls and one pass over 8 MiB —
    follows the mix of the workloads.
    """

    #: Probe time, in seconds, that defines the reference host speed.
    REFERENCE_S = 0.003

    def __init__(self) -> None:
        self._big = np.arange(1 << 20, dtype=np.float64)
        self._small = np.arange(64, dtype=np.float64)

    def __call__(self) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            acc = 0
            for i in range(10_000):
                acc += i & 7
            for _ in range(100):
                self._small.sum()
            float((self._big * 1.5).sum())
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Workload:
    """Common accounting: operations attempted/failed/retried, timed
    samples per stream, work done, and host-speed probes."""

    name = "?"
    #: The stream whose latency the generic ``op_p50_ms`` reports.
    op_stream = "?"
    #: Name of the workload's own throughput metric.
    work_metric = "?"
    #: Extra named latency metrics: name -> (stream, percentile, scale, unit).
    latency_metrics: Dict[str, Tuple[str, float, float, str]] = {}

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}  # stream -> seconds per op
        self.done: List[Tuple[float, float]] = []  # (seconds, work) per op
        self.probes: List[float] = []              # speed-probe seconds
        self.setup_layers: Dict[str, float] = {}
        self.pin_status = "not pinned by this workload"
        self._speed = SpeedProbe()

    def probe(self) -> None:
        """Record the host's speed now (between operations, untimed)."""
        self.probes.append(self._speed())

    def timed(self, stream: str, what: str, call, tracer, span_name: str):
        """Run one operation; record its time, or count it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with span(tracer, span_name):
                out = call()
        except Exception:
            self.failed += 1
            self.problems.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None
        self.samples.setdefault(stream, []).append(time.perf_counter() - t0)
        return out

    def reset(self) -> None:
        """Forget the operations the untimed warm-up pass recorded."""
        self.attempted = self.failed = self.retries = 0
        self.samples.clear()
        self.done.clear()

    def check_pin(self) -> None:
        expected = load_pins().get(self.name, {}).get(str(self.seed))
        self.pin_status = "unpinned" if expected is None else "pinned"
        if expected is not None and expected != self.pinned():
            self.problems.append(f"{self.name}: output differs from the pin for seed {self.seed}")

    def pinned(self):
        """The output this workload must reproduce for its seed."""

    def check_before(self) -> None:
        """Untimed pass that checks outputs against oracles."""

    def check_after(self) -> None:
        """Untimed checks on the state the timed loop left behind."""

    def instrument(self, tracer) -> None:
        """Wrap the layers the program calls internally."""

    def close(self) -> None:
        """Stop everything the workload started."""


def _count_rounds(phase: str, kernel: str):
    def count(result, tracer):
        tracer.counts[f"core.{phase}_rounds"] += result[1]
        tracer.counts[f"core.{kernel}_calls"] += 1

    return count


def _count_geometry(kind: str):
    def count(result, tracer):
        tracer.counts[f"geometry.{kind}"] += len(result)
        if result:
            # Every block/region holds a full-grid boolean mask.
            tracer.counts["geometry.mask_bytes"] += len(result) * result[0].cells.mask.size

    return count


def instrument_labeling(tracer) -> None:
    """Spans around the kernels and extraction ``label_mesh`` calls."""
    tracer.wrap(pipeline, "unsafe_fixpoint", "core.phase1", _count_rounds("phase1", "dense"))
    tracer.wrap(pipeline, "unsafe_fixpoint_sparse", "core.phase1", _count_rounds("phase1", "frontier"))
    tracer.wrap(pipeline, "enabled_fixpoint", "core.phase2", _count_rounds("phase2", "dense"))
    tracer.wrap(pipeline, "enabled_fixpoint_sparse", "core.phase2", _count_rounds("phase2", "frontier"))
    tracer.wrap(pipeline, "extract_blocks", "geometry.extract_blocks", _count_geometry("blocks"))
    tracer.wrap(pipeline, "extract_regions", "geometry.extract_regions", _count_geometry("regions"))


# ---------------------------------------------------------------------------
# fig5: the paper's own evaluation


class Fig5(Workload):
    """``run_fig5`` for Definitions 2a and 2b on the paper's 100x100 mesh,
    f = 0..100 step 10, uniform faults, serial."""

    name = "fig5"
    op_stream = "sweep"
    work_metric = "fig5_trials_per_s"
    F_VALUES = tuple(range(0, 101, 10))
    TRIALS = 20

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.topology = Mesh2D(100, 100)
        self.tables: Dict[str, str] = {}

    def _sweep(self, definition, method="auto"):
        return fig5_mod.run_fig5(
            definition,
            topology=self.topology,
            f_values=self.F_VALUES,
            trials=self.TRIALS,
            seed=self.seed,
            method=method,
            jobs=1,
        )

    def check_before(self) -> None:
        for d in DEFS:
            table = self._sweep(d).as_table()
            if table != self._sweep(d, method="dense").as_table():
                self.problems.append(f"fig5 {d.value}: table differs from the dense-kernel sweep")
            self.tables[d.value] = table
        self.check_pin()

    def pinned(self):
        joined = "\n".join(self.tables[d.value] for d in DEFS)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def iterate(self, tracer) -> None:
        for d in DEFS:
            curve = self.timed("sweep", f"run_fig5 {d.value}", lambda: self._sweep(d), tracer, "analysis.run_fig5")
            if curve is None:
                continue
            self.done.append((self.samples["sweep"][-1], self.TRIALS * len(self.F_VALUES)))
            if curve.as_table() != self.tables.get(d.value):
                self.problems.append(f"fig5 {d.value}: table changed between sweeps")
            self.probe()

    def instrument(self, tracer) -> None:
        tracer.wrap(fig5_mod, "uniform_random", "faults.generate")
        tracer.wrap(fig5_mod, "label_mesh", "core.label_mesh")
        instrument_labeling(tracer)


# ---------------------------------------------------------------------------
# label: one-shot labeling jobs


class Label(Workload):
    """A fixed list of one-shot ``label_mesh`` jobs (see ``JOBS``)."""

    name = "label"
    op_stream = "verify"
    work_metric = "label_cells_per_s"
    latency_metrics = {"verify_p50_ms": ("verify", 50, 1e3, "ms")}
    #: (job, mesh side, fault count, check_all after labeling)
    JOBS = (
        ("a-paper", 100, 100, True),        # core.theorems dominates
        ("b-10pct", 1000, 100_000, False),  # core.kernels + auto choice
        ("b-20pct", 1000, 200_000, False),
        ("c-sparse", 1000, 250, False),     # extraction memory dominates
    )

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.jobs = []
        for index, (job, side, count, verify) in enumerate(self.JOBS):
            topo = Mesh2D(side, side)
            faults = uniform_random(topo.shape, count, rng_for(seed, index))
            for d in DEFS:
                self.jobs.append((f"{job}/{d.value}", topo, faults, d, verify))
        self.summaries: Dict[str, tuple] = {}

    @staticmethod
    def _summary(result) -> tuple:
        return (
            result.rounds_phase1,
            result.rounds_phase2,
            len(result.blocks),
            len(result.regions),
            result.num_activated,
            result.method,
        )

    def check_before(self) -> None:
        for job, topo, faults, d, verify in self.jobs:
            result = pipeline.label_mesh(topo, faults, d)
            unsafe, r1 = unsafe_fixpoint(topo, faults.mask, d)
            enabled, r2 = enabled_fixpoint(topo, faults.mask, unsafe)
            if not (
                np.array_equal(result.labels.unsafe, unsafe)
                and np.array_equal(result.labels.enabled, enabled)
                and (result.rounds_phase1, result.rounds_phase2) == (r1, r2)
            ):
                self.problems.append(f"label {job}: planes differ from the dense-kernel oracle")
            if verify and not all(check_all(result)):
                self.problems.append(f"label {job}: a check_all outcome fails")
            self.summaries[job] = self._summary(result)
            del result, unsafe, enabled
            gc.collect()

    def iterate(self, tracer) -> None:
        for job, topo, faults, d, verify in self.jobs:
            result = self.timed(
                "label", f"label {job}", lambda: pipeline.label_mesh(topo, faults, d), tracer, "core.label_mesh"
            )
            if result is None:
                continue
            self.done.append((self.samples["label"][-1], topo.num_nodes))
            if verify:
                outcomes = self.timed("verify", f"check_all {job}", lambda: check_all(result), tracer, "theorems.check_all")
                if outcomes is not None and not all(outcomes):
                    self.problems.append(f"label {job}: a check_all outcome fails")
            if self._summary(result) != self.summaries.get(job):
                self.problems.append(f"label {job}: result changed between cycles")
            del result
            gc.collect()
            self.probe()

    def instrument(self, tracer) -> None:
        instrument_labeling(tracer)


# ---------------------------------------------------------------------------
# serve: the durable online service over a unix socket


class Serve(Workload):
    """One ``ServiceClient`` over a unix socket to a ``LabelingServer``
    thread serving a durable 1000x1000 ``LabelingService``."""

    name = "serve"
    op_stream = "update"
    work_metric = "serve_ops_per_s"
    latency_metrics = {
        "update_p50_us": ("update", 50, 1e6, "us"),
        "update_p99_us": ("update", 99, 1e6, "us"),
        "query_p50_us": ("query", 50, 1e6, "us"),
        "regions_p50_ms": ("regions", 50, 1e3, "ms"),
    }
    SIDE = 1000
    FAULTS = 100
    PAIRS = 333            # inject/query/repair triples per unit
    SNAPSHOT_EVERY = 1000  # effective deltas between checkpoints

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.topology = Mesh2D(self.SIDE, self.SIDE)
        rng = rng_for(seed, 0)
        faults = uniform_random(self.topology.shape, self.FAULTS, rng)
        free = np.flatnonzero(~faults.mask.ravel())
        flat = rng.choice(free, size=self.PAIRS, replace=False)
        self.cells = [(int(i) // self.SIDE, int(i) % self.SIDE) for i in flat]
        self.server = self.thread = self.client = None
        self.wal_dir = os.path.join(root, ".perfbench_tmp", f"serve-{os.getpid()}")
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        os.makedirs(self.wal_dir)
        t0 = time.perf_counter()
        self.service = LabelingService(
            self.topology,
            faults=faults,
            wal_dir=self.wal_dir,
            snapshot_every=self.SNAPSHOT_EVERY,
        )
        # A relative path keeps the socket under the 108-byte limit
        # however deep the checkout is.
        sock = os.path.relpath(os.path.join(self.wal_dir, "serve.sock"))
        self.server = LabelingServer(self.service, unix_path=sock)
        self.thread = self.server.serve_in_thread()
        self.client = ServiceClient.connect_unix(sock)
        self._count_attempts()
        self.client.ping()
        self.setup_layers["service.boot_s"] = time.perf_counter() - t0

    def _count_attempts(self) -> None:
        """Count every wire attempt, so retries = attempts - requests."""
        request = self.client.request
        self.wire_attempts = 0

        def counted(payload):
            self.wire_attempts += 1
            return request(payload)

        self.client.request = counted

    def _request(self, stream: str, what: str, call, tracer):
        attempts0 = self.wire_attempts
        out = self.timed(stream, what, call, tracer, f"server.{stream}")
        self.retries += max(0, self.wire_attempts - attempts0 - 1)
        return out

    def check_before(self) -> None:
        self.baseline_unsafe = self.service.engine.labels.unsafe.copy()
        self.baseline_enabled = self.service.engine.labels.enabled.copy()
        self.baseline_regions = self.client.query_regions()
        self.iterate(None)  # warm-up pass through every op kind

    def iterate(self, tracer) -> None:
        client = self.client
        requests0, t_start = self.attempted, time.perf_counter()
        for c in self.cells:
            self._request("update", "inject", lambda: client.update(inject=[c]), tracer)
            nodes = self._request("query", "query", lambda: client.query_nodes([c]), tracer)
            self._request("update", "repair", lambda: client.update(repair=[c]), tracer)
            if nodes is not None and nodes[0]["status"] != "faulty":
                self.problems.append(f"serve: injected node {c} reads {nodes[0]['status']}")
        regions = self._request("regions", "regions", client.query_regions, tracer)
        if regions is not None and regions != self.baseline_regions:
            self.problems.append("serve: regions differ from the start state's")
        self.done.append((time.perf_counter() - t_start, self.attempted - requests0))
        gc.collect()

    def check_after(self) -> None:
        acked = self.client.ping()
        if not self.service.verify_against_scratch():
            self.problems.append("serve: served labels differ from scratch labeling")
        labels = self.service.engine.labels
        if not (
            np.array_equal(labels.unsafe, self.baseline_unsafe)
            and np.array_equal(labels.enabled, self.baseline_enabled)
        ):
            self.problems.append("serve: op stream did not return to its start state")
        self._stop()
        state = recover_state(self.wal_dir)
        if not state.verified or state.engine.version != acked:
            self.problems.append(
                f"serve: WAL recovery reached version {state.engine.version}, acknowledged {acked}"
            )

    def close(self) -> None:
        self._stop()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    def _stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.shutdown()
            self.thread.join(timeout=10)
            self.server.close()
            self.service.finalize()
            self.server = None

    def instrument(self, tracer) -> None:
        service, engine = self.service, self.service.engine

        def count_delta(report, tracer):
            tracer.counts["incremental.cache_hits"] += report.cache_hits
            tracer.counts["incremental.cache_misses"] += report.cache_misses
            tracer.counts["incremental.blocks_changed"] += report.blocks_changed

        def count_bytes(nbytes, tracer):
            tracer.counts["wal.bytes"] += nbytes

        tracer.wrap(service, "apply_batch", "service.apply_batch")
        tracer.wrap(service, "checkpoint", "wal.checkpoint")
        tracer.wrap(service._wal, "append", "wal.append", count_bytes)
        tracer.wrap(engine, "apply", "incremental.apply", count_delta)
        tracer.wrap(engine, "snapshot", "incremental.snapshot")
        instrument_labeling(tracer)


# ---------------------------------------------------------------------------
# traffic: a routing-payoff campaign through the batched engine


class Traffic(Workload):
    """Identical uniform traffic through the ``rect-fb`` and
    ``regions-2b`` views of one clustered fault pattern on 64x64, at a
    rate below the saturation knee and one above it."""

    name = "traffic"
    op_stream = "campaign"
    work_metric = "traffic_packets_per_s"
    SIDE = 64
    FAULTS = 100
    RATES = (20.0, 50.0)
    PACKETS = 4000
    SLICE = 300  # packets checked against the scalar reference engine

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        topo = Mesh2D(self.SIDE, self.SIDE)
        faults = clustered(topo.shape, self.FAULTS, rng_for(seed, 0), clusters=4, spread=2.0)
        result = pipeline.label_mesh(topo, faults, SafetyDefinition.DEF_2B)
        self.views = {
            "rect-fb": FaultModelView.from_blocks(result),
            "regions-2b": FaultModelView.from_regions(result),
        }
        shared = np.ones(topo.shape, dtype=bool)
        for view in self.views.values():
            shared &= view.enabled
        self.shared = FaultModelView(topo, shared)
        t0 = time.perf_counter()
        self.nets = {name: BatchedNetwork(v, kernel="detour") for name, v in self.views.items()}
        self.setup_layers["routing.kernel_build_s"] = time.perf_counter() - t0
        self.outcomes: Dict[str, list] = {}

    def _traffic(self, rate: float):
        return synthetic_traffic(
            self.shared, self.PACKETS, rng_for(self.seed, 1, int(rate)), injection_rate=rate
        )

    @staticmethod
    def _outcome(res) -> list:
        """Delivery, throughput and latency in cycles, as pinned."""
        return [
            res.num_delivered,
            res.num_dropped,
            res.num_stuck,
            res.cycles,
            round(res.throughput, 6),
            round(res.mean_latency, 6),
            res.p99_latency,
        ]

    def pinned(self):
        return self.outcomes

    def check_before(self) -> None:
        for rate in self.RATES:
            full = self._traffic(rate)
            part = BatchedTraffic(
                sx=full.sx[: self.SLICE], sy=full.sy[: self.SLICE],
                dx=full.dx[: self.SLICE], dy=full.dy[: self.SLICE],
                inject=full.inject[: self.SLICE],
            )
            for name, view in self.views.items():
                fast = self.nets[name].run(part)
                slow = BatchedNetwork(view, kernel="detour", engine="reference").run(part)
                if not fast.equals(slow):
                    self.problems.append(
                        f"traffic {name}@{rate:g}: batched differs from reference: "
                        f"{fast.diff_summary(slow)}"
                    )
        self.outcomes = self.iterate(None)
        self.check_pin()

    def iterate(self, tracer) -> Dict[str, list]:
        t_start = time.perf_counter()
        outcomes: Dict[str, list] = {}
        for rate in self.RATES:
            with span(tracer, "traffic.generate"):
                traffic = self._traffic(rate)
            for name, net in self.nets.items():
                res = self.timed("run", f"traffic {name}@{rate:g}", lambda: net.run(traffic), tracer, "batched.run")
                if res is None:
                    continue
                if tracer is not None:
                    c = tracer.counts
                    c["batched.cycles"] += res.cycles
                    c["batched.packet_hops"] += int(res.hops.sum())
                    c["batched.stalls"] += int(res.stalls.sum())
                    c["batched.delivered"] += res.num_delivered
                    c["batched.dropped"] += res.num_dropped
                    c["batched.stuck"] += res.num_stuck
                outcomes[f"{rate:g}/{name}"] = self._outcome(res)
        dt = time.perf_counter() - t_start
        self.samples.setdefault("campaign", []).append(dt)
        self.done.append((dt, len(self.RATES) * len(self.nets) * self.PACKETS))
        if self.outcomes and outcomes != self.outcomes:
            self.problems.append("traffic: campaign outcomes changed between iterations")
        return outcomes

    def instrument(self, tracer) -> None:
        for net in self.nets.values():
            tracer.wrap(net.kernel, "decide", "routing.decide")


WORKLOADS = {cls.name: cls for cls in (Fig5, Label, Serve, Traffic)}
