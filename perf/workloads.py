"""The four benchmark workloads: recipes, job lists and output checks.

Each workload isolates one layer of the pipeline (see ``README.md`` for
the pairing of layer metric and end-to-end metric):

``social_ba_apps``  multilevel partitioner + both engines + fault path
``rmat_ooc_nr``     dense propagation engine over the shard store
``rmat_ooc_bfs``    sparse-frontier propagation over the same store
``rmat_mem_mr``     MapReduce engine over the in-memory generator

Only public names of ``repro.graph``, ``repro.partitioning``,
``repro.core``, ``repro.cluster``, ``repro.propagation``,
``repro.mapreduce``, ``repro.runtime.events`` and ``repro.apps`` are used —
never ``repro.bench`` or ``repro.cli`` — so the benchmark survives the
refactors it is meant to judge.  Entry points are called through their
module (``recursive.recursive_bisection(...)``) so that the tracer's
rebinding of module attributes reaches these call sites as well.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro import apps
from repro.cluster import GIGABIT_BPS, Cluster, FaultPlan, MachineSpec, t2
from repro.core import bandwidth_aware, range_plan, surfer as surfer_mod
from repro.graph import algorithms, generators, store, stream
from repro.partitioning import metrics as part_metrics
from repro.partitioning import recursive, wgraph

__all__ = ["Sizes", "FULL", "TINY", "Deployment", "JobRun", "Workload",
           "WORKLOADS", "same_result", "make_cluster", "partition_quality"]

# The cluster regime of the paper's testbed, copied (not imported) from
# repro.bench.workloads: one simulated byte stands for HARDWARE_SCALE real
# bytes, every rate is divided by the same factor, and shuffle traffic on
# the shared switch achieves ~40 MB/s per machine pair.
HARDWARE_SCALE = 200_000.0
SCALED_LINK_BPS = 40_000_000.0 / HARDWARE_SCALE
TESTBED_MACHINE = MachineSpec(
    memory_bytes=8 * 1024**3,
    disk_read_bps=180_000_000.0,
    disk_write_bps=150_000_000.0,
    cpu_ops_per_sec=50_000_000.0,
    nic_bps=GIGABIT_BPS,
)

#: the paper samples 10 % of the vertices for TC and TFL
SAMPLED_APPS = {"TC": 0.1, "TFL": 0.1}
RMAT_EDGE_FACTOR = 12
KILL_FRACTION = 0.33
RECOVERY_ITERATIONS = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetition counts of one preset."""

    communities: int
    community_size: int
    social_parts: int
    social_machines: int
    ooc_scale: int
    ooc_shards: int
    mem_scale: int
    mem_parts: int
    rmat_machines: int
    nr_iterations: int
    mr_rounds: int
    setup_reps: int
    min_job_reps: int


# Sized so that 4 + 22 x 4 driver runs fit the 3420 s cap on a 2-core box
# even when the host runs 2-3x slow: a quarter of the repo's standard
# social graph (8 x 512 vertices, 16 parts on 8 machines, ~2.5 s to
# partition) and R-MAT two scales below the issue's proposal.  See
# README.md for what was cut and why.
FULL = Sizes(communities=8, community_size=512, social_parts=16,
             social_machines=8, ooc_scale=17, ooc_shards=8, mem_scale=16,
             mem_parts=16, rmat_machines=8, nr_iterations=2, mr_rounds=5,
             setup_reps=3, min_job_reps=3)
TINY = Sizes(communities=2, community_size=64, social_parts=4,
             social_machines=4, ooc_scale=10, ooc_shards=4, mem_scale=10,
             mem_parts=4, rmat_machines=4, nr_iterations=2, mr_rounds=2,
             setup_reps=1, min_job_reps=1)


@dataclass
class Deployment:
    """What set-up leaves behind: a graph deployed as a ``Surfer``."""

    graph: Any
    surfer: Any
    seed: int
    #: the recursive bisection, where the multilevel partitioner ran
    data: Any = None
    store_path: Path | None = None


@dataclass
class JobRun:
    """One executed job of a job list."""

    label: str
    engine: str
    job: Any
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.job.failed and not self.issues

    @property
    def steps(self) -> int:
        return len(self.job.reports)


#: ``run(label, engine, thunk)`` executes one job inside a span
Runner = Callable[[str, str, Callable[[], Any]], JobRun]
#: ``watch(app)`` lets the tracer count the instance's hook calls
Watcher = Callable[[Any], Any]


def make_cluster(num_machines: int) -> Cluster:
    """T2(4,1) pods over the regime-scaled testbed machines."""
    return Cluster(t2(4, 1, num_machines, SCALED_LINK_BPS),
                   machine_spec=TESTBED_MACHINE.scaled(HARDWARE_SCALE))


def same_result(a: Any, b: Any) -> bool:
    """Equality of two job outputs (arrays, graphs, dicts, counts)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            return bool(np.allclose(a, b, rtol=1e-9, atol=1e-12))
        return bool(np.array_equal(a, b))
    return bool(a == b)


class Workload:
    """A recipe: set-up, job list, output checks."""

    name = ""
    #: frontier jobs count each input edge once (Graph500 TEPS), dense
    #: jobs once per executed step
    teps = False

    def setup(self, seed: int, scratch: Path, sizes: Sizes) -> Deployment:
        raise NotImplementedError

    def run_jobs(self, dep: Deployment, sizes: Sizes, run: Runner,
                 watch: Watcher) -> None:
        raise NotImplementedError

    def checks(self, dep: Deployment, sizes: Sizes,
               runs: dict[str, JobRun]) -> Iterator[tuple[str, bool]]:
        raise NotImplementedError

    def work_edges(self, dep: Deployment, runs: list[JobRun]) -> int:
        """Edges processed by one job list (the throughput numerator)."""
        steps = len(runs) if self.teps else sum(r.steps for r in runs)
        return dep.graph.num_edges * steps


# ----------------------------------------------------------------------
class SocialApps(Workload):
    """Partitioned social graph under the paper's application matrix."""

    name = "social_ba_apps"

    def setup(self, seed: int, scratch: Path, sizes: Sizes) -> Deployment:
        graph = generators.composite_social_graph(
            sizes.communities, sizes.community_size, k=8, p_r=0.05,
            seed=seed)
        weighted = wgraph.WGraph.from_digraph(graph)
        data = recursive.recursive_bisection(weighted, sizes.social_parts,
                                             seed=seed)
        cluster = make_cluster(sizes.social_machines)
        plan = bandwidth_aware.bandwidth_aware_partition(
            graph, cluster.topology, sizes.social_parts, seed=seed,
            data=data)
        deployed = surfer_mod.Surfer(graph, cluster, seed=seed, plan=plan)
        return Deployment(graph, deployed, seed, data=data)

    def run_jobs(self, dep: Deployment, sizes: Sizes, run: Runner,
                 watch: Watcher) -> None:
        main = dep.surfer
        for name in apps.APP_ORDER:
            prop_cls, mr_cls, iterations = apps.APP_REGISTRY[name]
            kwargs = ({"select_ratio": SAMPLED_APPS[name]}
                      if name in SAMPLED_APPS else {})
            run(f"apps.{name}.propagation", "propagation",
                lambda: main.run_propagation(watch(prop_cls(**kwargs)),
                                             iterations=iterations))
            run(f"apps.{name}.mapreduce", "mapreduce",
                lambda: main.run_mapreduce(mr_cls(**kwargs),
                                           rounds=iterations))

        # Figure 10: kill the machine holding partition 0 a third of the
        # way through; kills mutate the replica map, hence a fresh Surfer.
        clean = run("runtime.recovery_clean", "propagation",
                    lambda: main.run_propagation(
                        watch(apps.NetworkRankingPropagation()),
                        iterations=RECOVERY_ITERATIONS))
        faults = FaultPlan().add_kill(
            int(main.store.primary(0)),
            KILL_FRACTION * clean.job.metrics.response_time)

        def recovery() -> Any:
            plan = dataclasses.replace(main.plan,
                                       placement=main.plan.placement.copy())
            fresh = surfer_mod.Surfer(dep.graph, main.cluster, seed=dep.seed,
                                      plan=plan)
            return fresh.run_propagation(
                watch(apps.NetworkRankingPropagation()),
                iterations=RECOVERY_ITERATIONS, fault_plan=faults)

        run("runtime.recovery_job", "propagation", recovery)

        def oblivious() -> Any:
            plan = bandwidth_aware.oblivious_partition(
                dep.graph, main.cluster.topology, main.num_parts,
                seed=dep.seed, data=dep.data)
            scattered = surfer_mod.Surfer(dep.graph, main.cluster,
                                          seed=dep.seed, plan=plan)
            return scattered.run_propagation(
                watch(apps.NetworkRankingPropagation()), iterations=1,
                local_opts=False)

        run("core.o1_job", "propagation", oblivious)

    def checks(self, dep: Deployment, sizes: Sizes,
               runs: dict[str, JobRun]) -> Iterator[tuple[str, bool]]:
        graph = dep.graph

        def result(label: str) -> Any:
            return runs[label].job.result

        ranks = algorithms.pagerank(
            graph, num_iterations=apps.APP_REGISTRY["NR"][2])
        histogram = algorithms.degree_histogram(graph)
        reverse = graph.reverse()
        for engine in ("propagation", "mapreduce"):
            yield f"NR.{engine} == pagerank", same_result(
                result(f"apps.NR.{engine}"), ranks)
            yield f"VDD.{engine} == degree_histogram", same_result(
                result(f"apps.VDD.{engine}"), histogram)
            yield f"RLG.{engine} == graph.reverse()", same_result(
                result(f"apps.RLG.{engine}"), reverse)
        for name in ("RS", "TC", "TFL"):
            yield f"{name}.propagation == {name}.mapreduce", same_result(
                result(f"apps.{name}.propagation"),
                result(f"apps.{name}.mapreduce"))
        yield "recovery result == clean result", same_result(
            result("runtime.recovery_job"), result("runtime.recovery_clean"))
        yield "NR at O1 == pagerank", same_result(result("core.o1_job"),
                                                  ranks)


# ----------------------------------------------------------------------
class _RmatStore(Workload):
    """Streamed R-MAT -> shard store -> contiguous-range plan."""

    def setup(self, seed: int, scratch: Path, sizes: Sizes) -> Deployment:
        path = scratch / "store"
        store.build_shard_store(
            stream.stream_rmat(sizes.ooc_scale,
                               edge_factor=RMAT_EDGE_FACTOR, seed=seed),
            path, num_shards=sizes.ooc_shards)
        graph = store.open_shard_graph(path)
        cluster = make_cluster(sizes.rmat_machines)
        plan = range_plan.contiguous_range_plan(
            graph, cluster.topology, sizes.ooc_shards, seed=seed,
            offsets=graph.store.vertex_starts)
        deployed = surfer_mod.Surfer(graph, cluster, seed=seed,
                                     replication=3, plan=plan)
        return Deployment(graph, deployed, seed, store_path=path)

    def oracle_graph(self, dep: Deployment) -> Any:
        """The single-machine oracles need the edges in memory."""
        return dep.graph.to_graph()


class RmatOocNr(_RmatStore):
    """Dense NR propagation over the shard store."""

    name = "rmat_ooc_nr"

    def run_jobs(self, dep: Deployment, sizes: Sizes, run: Runner,
                 watch: Watcher) -> None:
        run("apps.NR.propagation", "propagation",
            lambda: dep.surfer.run_propagation(
                watch(apps.NetworkRankingPropagation()),
                iterations=sizes.nr_iterations, vectorized=True))

    def checks(self, dep: Deployment, sizes: Sizes,
               runs: dict[str, JobRun]) -> Iterator[tuple[str, bool]]:
        yield "NR.propagation == pagerank", same_result(
            runs["apps.NR.propagation"].job.result,
            algorithms.pagerank(self.oracle_graph(dep),
                                num_iterations=sizes.nr_iterations))


class RmatOocBfs(_RmatStore):
    """Frontier BFS over the shard store, until convergence."""

    name = "rmat_ooc_bfs"
    teps = True
    MAX_SUPERSTEPS = 64

    def run_jobs(self, dep: Deployment, sizes: Sizes, run: Runner,
                 watch: Watcher) -> None:
        run("apps.BFS.propagation", "propagation",
            lambda: dep.surfer.run_propagation(
                watch(apps.BreadthFirstSearchPropagation(source=0)),
                iterations=self.MAX_SUPERSTEPS, frontier=True,
                vectorized=True, until_convergence=True))

    def checks(self, dep: Deployment, sizes: Sizes,
               runs: dict[str, JobRun]) -> Iterator[tuple[str, bool]]:
        run = runs["apps.BFS.propagation"]
        yield "BFS converged", run.steps < self.MAX_SUPERSTEPS
        yield "BFS.propagation == bfs_levels", same_result(
            run.job.result,
            algorithms.bfs_levels(self.oracle_graph(dep), 0))


class RmatMemMr(Workload):
    """In-memory R-MAT under the MapReduce engine."""

    name = "rmat_mem_mr"

    def setup(self, seed: int, scratch: Path, sizes: Sizes) -> Deployment:
        graph = generators.rmat(sizes.mem_scale,
                                edge_factor=RMAT_EDGE_FACTOR, seed=seed)
        cluster = make_cluster(sizes.rmat_machines)
        plan = range_plan.contiguous_range_plan(
            graph, cluster.topology, sizes.mem_parts, seed=seed)
        deployed = surfer_mod.Surfer(graph, cluster, seed=seed, plan=plan)
        return Deployment(graph, deployed, seed)

    def run_jobs(self, dep: Deployment, sizes: Sizes, run: Runner,
                 watch: Watcher) -> None:
        run("apps.NR.mapreduce", "mapreduce",
            lambda: dep.surfer.run_mapreduce(
                apps.NetworkRankingMapReduce(), rounds=sizes.mr_rounds,
                vectorized=True))

    def checks(self, dep: Deployment, sizes: Sizes,
               runs: dict[str, JobRun]) -> Iterator[tuple[str, bool]]:
        yield "NR.mapreduce == pagerank", same_result(
            runs["apps.NR.mapreduce"].job.result,
            algorithms.pagerank(dep.graph, num_iterations=sizes.mr_rounds))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SocialApps(), RmatOocNr(), RmatOocBfs(), RmatMemMr())
}


def partition_quality(dep: Deployment) -> dict[str, float]:
    """Cut and balance of the deployed partitioning (exact counts)."""
    pgraph = dep.surfer.pgraph
    edges = np.array([pgraph.partition_edge_count(p)
                      for p in range(pgraph.num_parts)], dtype=np.float64)
    quality = {
        "inner_edge_ratio": float(pgraph.inner_edge_ratio),
        "part_imbalance": float(edges.max() / edges.mean()),
        "core.cross_edges": float(pgraph.num_cross_edges),
    }
    if dep.data is not None:
        parts = dep.surfer.plan.parts
        quality["partitioning.edge_cut"] = float(
            part_metrics.edge_cut(dep.graph, parts))
        quality["partitioning.vertex_balance"] = float(
            part_metrics.balance(parts, pgraph.num_parts))
    return quality

