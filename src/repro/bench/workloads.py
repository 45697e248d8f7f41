"""Canonical workloads for the reproduction experiments.

The paper's evaluation runs on a 32-machine cluster, 64 partitions, and a
>100 GB MSN snapshot (29.6 B edges) plus 100 GB synthetic composites.  The
simulator's byte accounting is scale-free, so we use the paper's own
synthetic recipe (Appendix F) at a tractable size and keep the paper's
*ratios*: 2 partitions per machine, 5 % inter-community rewiring, 10 %
vertex samples for TC/TFL.

``standard_workload()`` is the shared configuration every table/figure
bench uses unless it sweeps the relevant parameter itself.  A job by
name is a :class:`WorkloadSpec` launched with :func:`run_workload` — the
one path ``repro run`` / ``profile`` / ``chaos`` and the experiments
share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.apps import make_app
from repro.cluster.cluster import Cluster
from repro.cluster.spec import GIGABIT_BPS, MachineSpec
from repro.cluster.topology import Topology, t1, t2, t3
from repro.core.surfer import Surfer
from repro.graph.digraph import Graph
from repro.graph.generators import composite_social_graph
from repro.runtime.events import wall_timer

__all__ = [
    "WorkloadSpec",
    "run_workload",
    "chaos_job",
    "timed_job",
    "Workload",
    "standard_graph",
    "standard_workload",
    "scaled_graph",
    "topology_suite",
    "topology_by_name",
    "make_cluster",
    "PAPER_GRAPH_BYTES",
    "HARDWARE_SCALE",
    "SCALED_LINK_BPS",
    "TOPOLOGIES",
]

# ||G|| for the Table 1 elapsed-time model: the paper's >100 GB graph.
PAPER_GRAPH_BYTES = 128 * 1024**3

# One simulated byte stands for this many real bytes: the standard graph
# (~131 k edges, ~1.5 MB of adjacency) then occupies the same fraction of
# the hardware as the paper's 29.6 B-edge, >100 GB MSN snapshot did, so
# the network/disk/CPU balance — and hence every relative result — lands
# in the paper's regime.  All rates are divided by the same factor, so no
# ratio changes.
HARDWARE_SCALE = 200_000.0

# Per-pair network goodput during many-to-many exchange.  The testbed NIC
# is 1 GbE, but shuffle-style traffic on a shared switch achieves a
# fraction of line rate (incast and contention); ~40 MB/s effective pair
# goodput is the conventional planning figure and is what makes network
# I/O the dominant cost at the paper's scale.
EFFECTIVE_PAIR_BPS = 40_000_000.0
SCALED_LINK_BPS = EFFECTIVE_PAIR_BPS / HARDWARE_SCALE

# The testbed machines carry two 1 TB SATA disks (Appendix F): aggregate
# sequential rates around 180/150 MB/s.
TESTBED_MACHINE = MachineSpec(
    memory_bytes=8 * 1024**3,
    disk_read_bps=180_000_000.0,
    disk_write_bps=150_000_000.0,
    cpu_ops_per_sec=50_000_000.0,
    nic_bps=GIGABIT_BPS,
)


def make_cluster(topology: Topology) -> Cluster:
    """A cluster with the regime-scaled machine spec."""
    return Cluster(topology,
                   machine_spec=TESTBED_MACHINE.scaled(HARDWARE_SCALE))

#: defaults: 32 communities of 512 vertices, ~100k edges
STANDARD_COMMUNITIES = 32
STANDARD_COMMUNITY_SIZE = 512
STANDARD_K = 8
STANDARD_SEED = 2010


# The recursive data bisection depends only on (graph, num_parts, seed) —
# not on the topology or placement — so experiments sweeping topologies
# reuse it.  Values pin their graph so ``id`` keys cannot be recycled.
_BISECTION_CACHE: dict = {}


def cached_bisection(graph: Graph, num_parts: int, seed: int):
    """Memoized recursive bisection of a graph (identity-keyed)."""
    from repro.partitioning.recursive import recursive_bisection
    from repro.partitioning.wgraph import WGraph

    # never routed; the cached value pins the graph so a recycled id
    # can only miss, not alias
    key = (id(graph), num_parts, seed)  # repro: ignore[DET001] -- memo key
    hit = _BISECTION_CACHE.get(key)
    if hit is None or hit[0] is not graph:
        data = recursive_bisection(
            WGraph.from_digraph(graph), num_parts, seed=seed
        )
        _BISECTION_CACHE[key] = (graph, data)
        return data
    return hit[1]


@dataclass
class Workload:
    """A graph deployed on a cluster under both layouts."""

    graph: Graph
    cluster: Cluster
    num_parts: int
    seed: int
    replication: int = 3
    _surfers: dict | None = None

    def surfer(self, layout: str) -> Surfer:
        """A (cached) Surfer instance for the given layout."""
        if self._surfers is None:
            self._surfers = {}
        if layout not in self._surfers:
            self._surfers[layout] = Surfer(
                self.graph, self.cluster, num_parts=self.num_parts,
                layout=layout, seed=self.seed,
                replication=self.replication,
                data=cached_bisection(self.graph, self.num_parts,
                                      self.seed),
            )
        return self._surfers[layout]


_STANDARD_GRAPHS: dict[float, Graph] = {}


def standard_graph(scale: float = 1.0) -> Graph:
    """The evaluation graph: the paper's composite social recipe, seed
    :data:`STANDARD_SEED`.

    Memoized per ``scale`` so experiments sharing the default graph also
    share its cached bisections.
    """
    if scale not in _STANDARD_GRAPHS:
        communities = max(2, int(STANDARD_COMMUNITIES * scale))
        _STANDARD_GRAPHS[scale] = composite_social_graph(
            num_communities=communities,
            community_size=STANDARD_COMMUNITY_SIZE,
            k=STANDARD_K,
            p_r=0.05,
            seed=STANDARD_SEED,
        )
    return _STANDARD_GRAPHS[scale]


def scaled_graph(num_machines: int) -> Graph:
    """Graph scaled proportionally to the machine count (Figure 11)."""
    return standard_graph(scale=num_machines / 32.0)


def standard_workload(
    num_machines: int = 32,
    num_parts: int = 64,
    graph: Graph | None = None,
) -> Workload:
    """The default experiment setup: 32 machines on T1, 64 partitions."""
    if graph is None:
        graph = standard_graph()
    return Workload(
        graph=graph,
        cluster=make_cluster(t1(num_machines, link_bps=SCALED_LINK_BPS)),
        num_parts=num_parts,
        seed=STANDARD_SEED,
    )


#: The five topologies of Table 1 / Figure 6 by paper name, each a
#: ``(num_machines, link_bps)`` builder — the one enumeration behind
#: :func:`topology_suite`, :func:`topology_by_name` and the CLI's
#: ``--topology``.
TOPOLOGIES: dict[str, Callable[[int, float], Topology]] = {
    "T1": t1,
    "T2(2,1)": functools.partial(t2, 2, 1),
    "T2(4,1)": functools.partial(t2, 4, 1),
    "T2(4,2)": functools.partial(t2, 4, 2),
    "T3": t3,
}


def topology_suite(num_machines: int = 32,
                   link_bps: float = SCALED_LINK_BPS) -> dict[str, Topology]:
    """Every paper topology, regime-scaled links."""
    return {name: build(num_machines, link_bps)
            for name, build in TOPOLOGIES.items()}


def topology_by_name(name: str, num_machines: int) -> Topology:
    """One paper topology by name (``T1``/``T2(p,l)``/``T3``)."""
    if name not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {name!r}; expected one of "
            f"{tuple(TOPOLOGIES)}"
        )
    return TOPOLOGIES[name](num_machines, SCALED_LINK_BPS)


# ----------------------------------------------------------------------
# One job by name, launched one way
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A named job: the app, its engine, step count and engine flags.

    Unset fields take the app's defaults from
    :func:`repro.apps.make_app`.
    """

    app: str
    engine: str
    iterations: int | None = None
    vectorized: bool | None = None
    local_opts: bool = True
    #: sparse active-set Transfer (propagation engine, frontier apps)
    frontier: bool = False
    #: stop at the app's convergence test instead of the full budget
    #: (default: the app's own — extension apps do, the paper's six not)
    until_convergence: bool | None = None


def run_workload(surfer: Surfer, workload: WorkloadSpec,
                 **job_options: Any) -> Any:
    """Run one named job on a deployed Surfer; returns its ``JobResult``.

    The launch every entry point shares — ``repro run`` / ``profile`` /
    ``chaos`` and the experiments: the spec names the job; ``job_options``
    are the per-run extras of :meth:`Surfer.run
    <repro.core.surfer.Surfer.run>` a spec does not describe
    (``fault_plan``, ``checkpoint``, ``sanitize``).
    """
    app, steps, until = make_app(workload.app, workload.engine)
    if workload.until_convergence is not None:
        until = workload.until_convergence
    return surfer.run(
        app, workload.iterations or steps,
        local_opts=workload.local_opts, frontier=workload.frontier,
        vectorized=workload.vectorized, until_convergence=until,
        **job_options,
    )


def chaos_job(workload: WorkloadSpec, policy: Any) -> Callable[..., Any]:
    """The ``run_job`` of a chaos sweep: ``workload`` under each fault
    plan, checkpointing under ``policy`` whenever there is a plan."""
    def run_job(surfer: Surfer, plan: Any) -> Any:
        return run_workload(
            surfer, workload, fault_plan=plan,
            checkpoint=policy if plan is not None else None,
        )
    return run_job


def timed_job(run: Callable[[], Any]) -> tuple[Any, float]:
    """Run one job closure; returns ``(job, wall_seconds)``.

    Build the Surfer *outside* the closure: deployment setup
    (partitioning above all) must never land in the timed region.
    """
    timer = wall_timer()
    job = run()
    return job, timer.elapsed()
