"""Runs one workload and turns what happened into the declared metrics.

One run is: set up ``setup_reps`` times (a fresh scratch directory each),
then on the last deployment one warm-up job list and timed job lists until
``seconds`` have passed, then the output checks.  The loop is closed: one
client, the next job starts when the previous one has completed.  With
``trace`` on, the wrapper table of :mod:`perf.trace` is installed during
set-up and during the second half of the timed job lists; the first half
runs without it, so the tracing overhead is measured inside one process.

Every timed repetition sits between two calibration points (see
:mod:`perf.calibrate`); the end-to-end timings are medians of the
repetitions' *reference seconds*, the per-layer timings are span sums as
measured.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.runtime import events

from perf import workloads as wl
from perf.calibrate import Calibrator, reference_seconds
from perf.trace import SpanStats, Tracer

#: scratch stores, span files and result files; git-ignored
OUT_DIR = Path(__file__).resolve().parent / "out"

#: job-registry counters that are wall-clock readings, not exact counts
WALL_COUNTERS = ("wall.udf_seconds", "scheduler.wall_seconds")
REF_KERNEL_SWEEPS = 10

Corrupter = Callable[[dict[str, wl.JobRun]], None]


def status_bytes(field_name: str) -> int:
    """``VmHWM`` / ``VmRSS`` of this process, from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"/proc/self/status has no {field_name}")


def relative_spread(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    low, _, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


@dataclass
class RunResult:
    """Everything one run measured."""

    workload: str
    seed: int
    trace: bool
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    missing_targets: list[str] = field(default_factory=list)
    #: how many samples stand behind each median
    samples: dict[str, int] = field(default_factory=dict)
    #: quartile distance over median of the samples behind a timing
    spread: dict[str, float] = field(default_factory=dict)
    #: timings as measured, before the restatement in reference seconds
    raw: dict[str, float] = field(default_factory=dict)
    #: exact counts of the last job list, for ``--compare``
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def summarize(runs: list[wl.JobRun]) -> dict[str, float]:
    """Simulated cost and registry counters summed over one job list."""
    out: Counter[str] = Counter()
    for run in runs:
        metrics = run.job.metrics
        out["sim_makespan_s"] += metrics.response_time
        out["sim_machine_time_s"] += metrics.total_machine_time
        out["sim_network_bytes"] += metrics.network_bytes
        out["sim_disk_bytes"] += metrics.disk_bytes
        out[f"steps.{run.engine}"] += run.steps
        for key, value in run.job.events.metrics.snapshot().items():
            if key == "wall.udf_seconds":
                key = f"wall.udf_seconds.{run.engine}"
            out[key] += value
    return dict(out)


def exact_counts(summary: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in summary.items()
            if not k.startswith(WALL_COUNTERS)}


def nr_kernel_seconds(graph: Any) -> float:
    """One PageRank sweep as bare NumPy over the same CSR; min of N.

    ``repeat`` + ``bincount`` per contiguous vertex range (shard by shard
    on a shard-backed graph, so the reference stays out-of-core too).
    """
    indptr = graph.out_indptr
    n = graph.num_vertices
    shard_store = getattr(graph, "store", None)
    starts = (shard_store.vertex_starts if shard_store is not None
              else np.array([0, n]))
    rank = np.full(n, 1.0 / max(n, 1))
    best = float("inf")
    for _ in range(REF_KERNEL_SWEEPS):
        start = time.perf_counter()
        incoming = np.zeros(n)
        for lo, hi in zip(starts[:-1], starts[1:]):
            degrees = np.diff(indptr[lo:hi + 1])
            contrib = rank[lo:hi] / np.maximum(degrees, 1)
            dst = graph.out_indices_range(int(indptr[lo]), int(indptr[hi]))
            incoming += np.bincount(dst, weights=np.repeat(contrib, degrees),
                                    minlength=n)
        rank = 0.15 / max(n, 1) + 0.85 * incoming
        best = min(best, time.perf_counter() - start)
    return best


class Run:
    """State of one workload run; ``execute()`` drives the phases."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, sizes: wl.Sizes = wl.FULL,
                 corrupt: Corrupter | None = None) -> None:
        self.spec = wl.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        #: test hook: tamper with the last job list before the checks
        self.corrupt = corrupt
        self.tracer = Tracer(workload)
        self.calibrator = Calibrator()
        #: calibration points per phase, one more than repetitions
        self.points: dict[str, list[float]] = defaultdict(list)
        self.result = RunResult(workload, seed, trace)
        self.summaries: list[dict[str, float]] = []
        self.last_runs: list[wl.JobRun] = []
        #: cut and balance of the measured deployment
        self.quality: dict[str, float] = {}
        #: ``VmHWM`` once ``min_job_reps`` timed job lists have run: the
        #: heap keeps growing slowly with further lists, and how many fit
        #: into ``seconds`` depends on the machine's speed
        self.peak_rss = 0

    # -- phases ---------------------------------------------------------
    def execute(self) -> RunResult:
        OUT_DIR.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        try:
            self._measure(scratch)
        finally:
            self.tracer.uninstall()
            shutil.rmtree(scratch, ignore_errors=True)
        return self.result

    def _calibrate(self, phase: str) -> None:
        self.points[phase].append(self.calibrator.point())

    def _measure(self, scratch: Path) -> None:
        tracer = self.tracer
        if self.trace:
            tracer.install()
        dep = None
        self._calibrate("setup")
        for rep in range(self.sizes.setup_reps):
            dep = None  # release the previous deployment before timing
            gc.collect()
            with tracer.rep("setup", rep):
                dep = self.spec.setup(self.seed, scratch / f"setup{rep}",
                                      self.sizes)
            self._calibrate("setup")
        assert dep is not None
        self.quality = wl.partition_quality(dep)
        setup_hwm = status_bytes("VmHWM")
        rss_before_jobs = status_bytes("VmRSS")

        self._job_list(dep, "warmup", 0)
        if self.trace:
            tracer.uninstall()
            self._timed_job_lists(dep, "untraced", self.seconds / 2)
            tracer.install()
            self._timed_job_lists(dep, "job", self.seconds / 2)
            tracer.uninstall()
        else:
            self._timed_job_lists(dep, "job", self.seconds)

        with tracer.rep("check", 0):
            self._check_outputs(dep)
        self._end_to_end(dep)
        if self.trace:
            with tracer.rep("reference", 0):
                kernel_s = self._reference_work(dep)
            self._per_layer(dep, kernel_s, setup_hwm, rss_before_jobs)
        self.result.missing_targets = list(tracer.missing)
        self.result.counts = exact_counts(self.summaries[-1])

    def _job_list(self, dep: wl.Deployment, phase: str, rep: int) -> None:
        tracer = self.tracer
        runs: list[wl.JobRun] = []

        def run(label: str, engine: str, thunk: Callable[[], Any]
                ) -> wl.JobRun:
            with tracer.span(label):
                job = thunk()
                issues = events.reconcile(job)
            done = wl.JobRun(label, engine, job, issues)
            runs.append(done)
            return done

        def watch(app: Any) -> Any:
            tracer.count_calls(app, "combine", "propagation.combine_calls")
            tracer.count_calls(app, "transfer_array",
                               "propagation.transfer_array_calls")
            return app

        gc.collect()
        with tracer.rep(phase, rep):
            self.spec.run_jobs(dep, self.sizes, run, watch)
        for done in runs:
            self.result.op(f"{phase}[{rep}] {done.label}: "
                           f"{done.job.error or '; '.join(done.issues)}",
                           done.ok)
        self.summaries.append(summarize(runs))
        self.last_runs = runs

    def _timed_job_lists(self, dep: wl.Deployment, phase: str,
                         budget: float) -> None:
        deadline = time.perf_counter() + budget
        rep = 0
        self._calibrate(phase)
        while rep < self.sizes.min_job_reps or time.perf_counter() < deadline:
            self._job_list(dep, phase, rep)
            rep += 1
            if not self.peak_rss and rep == self.sizes.min_job_reps:
                self.peak_rss = status_bytes("VmHWM")
            self._calibrate(phase)

    def _check_outputs(self, dep: wl.Deployment) -> None:
        runs = {run.label: run for run in self.last_runs}
        if self.corrupt is not None:
            self.corrupt(runs)
        for name, ok in self.spec.checks(dep, self.sizes, runs):
            self.result.op(f"check {name}", ok)
        first = exact_counts(self.summaries[0])
        self.result.op(
            "simulated cost and counters repeat exactly across job lists",
            all(exact_counts(s) == first for s in self.summaries[1:]))

    # -- metrics --------------------------------------------------------
    def _end_to_end(self, dep: wl.Deployment) -> None:
        tracer, result = self.tracer, self.result
        # in a traced run the wrappers are on during "job": the end-to-end
        # timing then comes from the half that ran without them
        job_phase = "untraced" if self.trace else "job"
        setup_walls = tracer.rep_walls("setup")
        job_walls = tracer.rep_walls(job_phase)
        setup_ref = reference_seconds(setup_walls, self.points["setup"])
        job_ref = reference_seconds(job_walls, self.points[job_phase])
        job_wall = statistics.median(job_ref)
        summary = self.summaries[-1]
        result.samples = {"setup_s": len(setup_ref),
                          "job_wall_s": len(job_ref)}
        result.spread = {"setup_s": relative_spread(setup_ref),
                         "job_wall_s": relative_spread(job_ref),
                         "job_edges_per_s": relative_spread(job_ref)}
        result.raw = {
            "setup_raw_s": statistics.median(setup_walls),
            "job_wall_raw_s": statistics.median(job_walls),
            "calibration_s": statistics.median(
                self.points["setup"] + self.points[job_phase]),
        }
        result.end_to_end = {
            "setup_s": statistics.median(setup_ref),
            "job_wall_s": job_wall,
            "job_edges_per_s":
                self.spec.work_edges(dep, self.last_runs) / job_wall,
            "peak_rss_bytes": float(self.peak_rss),
            "sim_makespan_s": summary["sim_makespan_s"],
            "sim_machine_time_s": summary["sim_machine_time_s"],
            "sim_network_bytes": summary["sim_network_bytes"],
            "sim_disk_bytes": summary["sim_disk_bytes"],
            "inner_edge_ratio": self.quality["inner_edge_ratio"],
            "part_imbalance": self.quality["part_imbalance"],
        }

    def _reference_work(self, dep: wl.Deployment) -> float:
        """Same-process yardsticks: the generator alone, the bare kernel."""
        if dep.store_path is not None:
            with self.tracer.span("graph.stream"):
                for _ in wl.stream.stream_rmat(
                        self.sizes.ooc_scale,
                        edge_factor=wl.RMAT_EDGE_FACTOR,
                        seed=self.seed).chunks():
                    pass
        with self.tracer.span("ref.nr_kernel"):
            return nr_kernel_seconds(dep.graph)

    def _per_layer(self, dep: wl.Deployment, kernel_s: float,
                   setup_hwm: int, rss_before_jobs: int) -> None:
        tracer = self.tracer
        edges = dep.graph.num_edges
        stats = tracer.aggregate()

        def med(phase: str, span: str,
                pick: Callable[[SpanStats], float]) -> float:
            reps = [pick(by_name.get(span, SpanStats()))
                    for (ph, _), by_name in stats.items() if ph == phase]
            return statistics.median(reps) if reps else 0.0

        def self_s(phase: str, span: str) -> float:
            return med(phase, span, lambda s: s.self_time)

        def total_s(phase: str, span: str) -> float:
            return med(phase, span, lambda s: s.total)

        def calls(phase: str, span: str) -> float:
            return med(phase, span, lambda s: float(s.count))

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        summary = self.summaries[-1]
        traced_lists = len(tracer.rep_walls("job"))
        runs = {run.label: run for run in self.last_runs}
        traced_counts = tracer.rep_counts.get(("job", 0), Counter())
        out = {f"bench.{name}": value
               for name, value in self.result.raw.items()}

        # graph
        out["graph.generate_s"] = self_s("setup", "graph.generate")
        out["graph.generate_edges_per_s"] = rate(
            edges, out["graph.generate_s"])
        out["graph.setup_rss_bytes"] = float(setup_hwm)
        out["graph.stream_s"] = total_s("reference", "graph.stream")
        out["graph.store_build_s"] = self_s("setup", "graph.store_build")
        out["graph.store_build_edges_per_s"] = rate(
            edges, out["graph.store_build_s"])
        out["graph.store_open_s"] = self_s("setup", "graph.store_open")
        if dep.store_path is not None:
            out["graph.store_bytes_per_edge"] = rate(
                sum(f.stat().st_size for f in dep.store_path.iterdir()),
                edges)

        # partitioning
        out["partitioning.wgraph_s"] = self_s("setup", "partitioning.wgraph")
        out["partitioning.bisect_s"] = total_s("setup", "partitioning.bisect")
        out["partitioning.bisect_edges_per_s"] = rate(
            edges, out["partitioning.bisect_s"])
        for part in ("coarsen", "initial", "fm_refine", "kway_balance"):
            out[f"partitioning.{part}_s"] = self_s(
                "setup", f"partitioning.{part}")
        out["partitioning.bisections"] = calls(
            "setup", "partitioning.multilevel")
        out["partitioning.fm_refine_calls"] = calls(
            "setup", "partitioning.fm_refine")
        for name in ("partitioning.edge_cut", "partitioning.vertex_balance",
                     "core.cross_edges"):
            out[name] = self.quality.get(name, 0.0)

        # core, cluster
        for part in ("place", "plan_build", "deploy"):
            out[f"core.{part}_s"] = self_s("setup", f"core.{part}")
        if "core.o1_job" in runs:
            out["core.o1_over_o4_makespan"] = (
                runs["core.o1_job"].job.metrics.response_time
                / runs["apps.NR.propagation"].job.metrics.response_time)
        out["cluster.cross_pod_bytes"] = summary.get(
            "network.bytes_cross_pod", 0.0)
        out["cluster.network_transfers"] = summary.get(
            "network.transfers", 0.0)

        # reference kernel, in this process, on this graph
        out["ref.nr_kernel_s"] = kernel_s
        out["ref.nr_kernel_edges_per_s"] = rate(edges, kernel_s)
        out["ref.oracle_s"] = tracer.rep_walls("check")[0]

        # the two engines
        for engine, span, step in (
                ("propagation", "propagation.iteration", "iteration"),
                ("mapreduce", "mapreduce.round", "round")):
            busy = total_s("job", span)
            out[f"{engine}.{step}_s"] = busy
            out[f"{engine}.engine_self_s"] = self_s("job", span)
            out[f"{engine}.edges_per_s"] = rate(
                edges * summary.get(f"steps.{engine}", 0.0), busy)
            out[f"{engine}.kernel_ratio"] = rate(
                out[f"{engine}.edges_per_s"],
                out["ref.nr_kernel_edges_per_s"])
        out["propagation.udf_wall_s"] = statistics.median(
            s.get("wall.udf_seconds.propagation", 0.0)
            for s in self.summaries[-traced_lists:])
        for name in ("messagebox_add_calls", "combine_calls",
                     "transfer_array_calls"):
            out[f"propagation.{name}"] = float(
                traced_counts.get(f"propagation.{name}", 0))
        if summary.get("steps.propagation"):
            out["propagation.rss_bytes_per_edge"] = rate(
                max(self.peak_rss - rss_before_jobs, 0), edges)
        for name in ("messages_emitted", "messages_shipped",
                     "locally_propagated", "network_bytes"):
            out[f"propagation.{name}"] = summary.get(
                f"propagation.{name}", 0.0)
        out["propagation.supersteps"] = summary.get(
            "propagation.iterations", 0.0)
        for name in ("active", "exchange_bytes", "bottom_up_scans"):
            out[f"propagation.frontier_{name}"] = summary.get(
                f"frontier.{name}", 0.0)
        for name in ("map_records", "shuffle_records", "shuffle_bytes",
                     "network_bytes"):
            out[f"mapreduce.{name}"] = summary.get(f"mapreduce.{name}", 0.0)
        if "apps.NR.mapreduce" in runs and "apps.NR.propagation" in runs:
            out["mapreduce.over_prop_network_bytes"] = rate(
                runs["apps.NR.mapreduce"].job.metrics.network_bytes,
                runs["apps.NR.propagation"].job.metrics.network_bytes)

        # runtime
        out["runtime.schedule_s"] = total_s("job", "runtime.schedule")
        out["runtime.reconcile_s"] = total_s("job", "runtime.reconcile")
        out["runtime.scheduler_wall_s"] = summary.get(
            "scheduler.wall_seconds", 0.0)
        for name in ("tasks_executed", "stages", "retries", "task_failures"):
            out[f"runtime.{name}"] = summary.get(f"scheduler.{name}", 0.0)
        out["runtime.recovery_job_s"] = total_s("job", "runtime.recovery_job")
        if "runtime.recovery_job" in runs:
            out["runtime.recovery_overhead"] = (
                runs["runtime.recovery_job"].job.metrics.response_time
                / runs["runtime.recovery_clean"].job.metrics.response_time
                - 1.0)

        # per application
        for name in wl.apps.APP_ORDER:
            for engine in ("propagation", "mapreduce"):
                out[f"apps.{name}.{engine}_s"] = total_s(
                    "job", f"apps.{name}.{engine}")

        # the tracer itself
        out["trace.overhead_ratio"] = rate(*(
            statistics.median(reference_seconds(tracer.rep_walls(phase),
                                                self.points[phase]))
            for phase in ("job", "untraced")))
        out["trace.spans"] = float(len(tracer.spans))
        out["trace.missing_targets"] = float(len(tracer.missing))
        self.result.samples["per_layer_job_lists"] = traced_lists
        self.result.per_layer = out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: wl.Sizes = wl.FULL, corrupt: Corrupter | None = None,
                 spans_path: str | None = None) -> RunResult:
    """Run one workload once; optionally write its span file."""
    run = Run(workload, seed, seconds, trace, sizes, corrupt)
    result = run.execute()
    if spans_path is not None:
        run.tracer.write(spans_path)
    return result
