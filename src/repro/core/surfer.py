"""The Surfer engine facade (Section 3, Figure 1).

``Surfer`` owns a partitioned, replicated, placed graph on a simulated
cluster and executes jobs written against either primitive:

* a :class:`~repro.propagation.api.PropagationApp` runs iterative
  propagation with the paper's optimization levels (local propagation +
  local combination on/off) and optional cascaded multi-iteration
  execution;
* a :class:`~repro.mapreduce.api.MapReduceApp` runs rounds of the
  home-grown MapReduce.

:meth:`Surfer.run` is the single launch path — the app's base class picks
the primitive; :meth:`Surfer.run_propagation` / :meth:`Surfer.run_mapreduce`
are its named entry points.

The four optimization levels of Section 6.3 decompose into two independent
choices reproduced here: the *layout* (bandwidth-aware vs. ParMetis-like
oblivious placement — fixed when the Surfer instance is built) and the
*local optimizations* flag passed per run:

====  ===================  ===================
O     layout               local optimizations
====  ===================  ===================
O1    oblivious            off
O2    bandwidth-aware      off
O3    oblivious            on
O4    bandwidth-aware      on
====  ===================  ===================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.errors import DataLossError, JobError, SchedulingError
from repro.cluster.cluster import Cluster, ClusterMetrics
from repro.cluster.faults import FaultPlan
from repro.cluster.storage import PartitionStore
from repro.core.bandwidth_aware import (
    PartitionPlan,
    bandwidth_aware_partition,
    oblivious_partition,
)
from repro.core.partitioned import PartitionedGraph
from repro.core.placement import (
    estimate_partition_costs,
    rebalance_placement,
    refine_colocated_placement,
)
from repro.graph.digraph import Graph
from repro.mapreduce.api import MapReduceApp
from repro.mapreduce.engine import MapReduceEngine
from repro.propagation.api import PropagationApp
from repro.propagation.cascade import (
    cascade_io_fractions,
    compute_cascade_info,
)
from repro.propagation.engine import PropagationEngine
from repro.runtime.checkpoint import CheckpointPolicy, CheckpointStore
from repro.runtime.events import EventStream
from repro.runtime.sanitizer import Sanitizer, sanitize_enabled
from repro.runtime.scheduler import StageScheduler

__all__ = ["OptimizationLevel", "O1", "O2", "O3", "O4", "ALL_LEVELS",
           "JobResult", "Surfer", "apply_outputs"]


@dataclass(frozen=True)
class OptimizationLevel:
    """One of the paper's O1–O4 configurations."""

    name: str
    bandwidth_aware_layout: bool
    local_optimizations: bool


O1 = OptimizationLevel("O1", bandwidth_aware_layout=False,
                       local_optimizations=False)
O2 = OptimizationLevel("O2", bandwidth_aware_layout=True,
                       local_optimizations=False)
O3 = OptimizationLevel("O3", bandwidth_aware_layout=False,
                       local_optimizations=True)
O4 = OptimizationLevel("O4", bandwidth_aware_layout=True,
                       local_optimizations=True)
ALL_LEVELS = (O1, O2, O3, O4)


@dataclass
class JobResult:
    """Outcome of one Surfer job.

    ``failed=True`` means the job could not recover (every replica of some
    partition lost and no checkpoint policy — or the restart budget ran
    out); ``result`` is then None and ``error`` says why.  ``restarts``
    counts job-level restarts from checkpoint and ``checkpoints`` the
    committed snapshots, so recovery cost is visible next to the result.
    ``events`` is the job's observability stream: spans for every task
    execution, stage and iteration, instants for every recovery action,
    and the metrics registry the engines and network model wrote into.
    """

    result: Any
    metrics: ClusterMetrics
    reports: list = field(default_factory=list)
    failed: bool = False
    error: str | None = None
    events: EventStream | None = None
    restarts: int = 0
    checkpoints: int = 0

    @property
    def response_time(self) -> float:
        return self.metrics.response_time

    @property
    def total_machine_time(self) -> float:
        return self.metrics.total_machine_time


class Surfer:
    """A partitioned graph deployed on a simulated cluster.

    The deployment — ``plan``, ``pgraph``, the replica map ``store`` and
    the dispatch ``assignment`` — is fixed at construction; every job
    works on its own copy of the last two, so a job's failures, repairs
    and restarts end with it.
    """

    def __init__(
        self,
        graph: Graph,
        cluster: Cluster,
        num_parts: int | None = None,
        layout: str = "bandwidth-aware",
        seed: int = 0,
        replication: int = 3,
        plan: PartitionPlan | None = None,
        data=None,
    ):
        self.graph = graph
        self.cluster = cluster
        if num_parts is None:
            num_parts = default_num_parts(cluster.num_machines)
        if plan is None:
            if layout == "bandwidth-aware":
                plan = bandwidth_aware_partition(
                    graph, cluster.topology, num_parts, seed=seed, data=data,
                )
            elif layout == "oblivious":
                plan = oblivious_partition(
                    graph, cluster.topology, num_parts, seed=seed, data=data,
                )
            else:
                raise JobError(
                    "layout must be 'bandwidth-aware' or 'oblivious'"
                )
        self.pgraph = PartitionedGraph(graph, plan.parts, plan.num_parts)
        # Intra-pod straggler relief: swap partitions between machines of
        # the same pod (bandwidth-neutral) when a machine would otherwise
        # pin the makespan - e.g. a co-located pair of hub partitions.
        self.plan = replace(plan, placement=refine_colocated_placement(
            self.pgraph, plan.placement, cluster.topology
        ))
        replication = min(replication, cluster.num_machines)
        self.store = PartitionStore(
            self.plan.placement, cluster.num_machines, replication, seed,
            partition_bytes=[self.pgraph.partition_bytes(p)
                             for p in range(self.pgraph.num_parts)],
            topology=cluster.topology,
        )
        # The job manager dispatches each partition's tasks to the least
        # loaded replica holder (bottleneck relief; Appendix B).
        # Dispatch-level relief stays replica-local: non-local execution
        # would drag partitions across pods, which the placement-level
        # refinement above already rules out deliberately.
        self.assignment = rebalance_placement(
            self.store, estimate_partition_costs(self.pgraph)
        )

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        return self.pgraph.num_parts

    @property
    def layout(self) -> str:
        return self.plan.method

    # ------------------------------------------------------------------
    def run(
        self,
        app: PropagationApp | MapReduceApp,
        steps: int = 1,
        *,
        local_opts: bool = True,
        cascaded: bool = False,
        frontier: bool = False,
        combiner: bool = False,
        vectorized: bool | None = None,
        until_convergence: bool = False,
        fault_plan: FaultPlan | None = None,
        pipelined: bool = False,
        speculation: bool = False,
        checkpoint: CheckpointPolicy | None = None,
        sanitize: bool | None = None,
    ) -> JobResult:
        """Run ``steps`` barrier steps of ``app``; returns its result.

        The app's base class picks the primitive: a
        :class:`PropagationApp` runs propagation iterations, a
        :class:`MapReduceApp` runs MapReduce rounds.  ``cascaded`` and
        ``frontier`` are propagation features, ``combiner`` a MapReduce
        one; asking the other primitive for one is a :class:`JobError`
        (``local_opts`` has nothing to switch off in MapReduce and is
        ignored there).  Everything else means the same for both.

        Propagation: ``local_opts`` toggles local propagation + local
        combination (the O-level table above).  ``cascaded=True`` enables
        the Section 5.2 multi-iteration optimization (identical results,
        reduced intermediate value I/O).  ``frontier=True`` (apps with
        ``uses_frontier``) runs each iteration over the app's sparse
        active set: same messages, same results and same
        ``propagation.*`` counters as the dense run, but transfer reads
        shrink to the frontier slice (with top-down/bottom-up direction
        switching) and per-partition frontier summaries are exchanged
        over the network.

        MapReduce: ``combiner=True`` enables Hadoop-style map-side
        combining (apps must implement ``combine``; plus
        ``combine_ufunc`` for the fast path) — shuffle volume shrinks,
        cpu charges grow, and the pre-combine volume stays visible on
        the round reports.

        Both: with ``until_convergence=True``, ``steps`` becomes an upper
        bound and the loop stops early once the app's
        ``converged(state)`` hook returns True.  ``pipelined=True``
        overlaps disk/CPU/network phases across a machine's consecutive
        tasks, ``speculation=True`` launches backup copies of straggler
        tasks (see StageScheduler).  ``vectorized`` picks the
        implementation (None = auto array fast path, False = scalar
        oracle, True = require the fast path); both paths produce
        bit-identical results and cost numbers.  ``checkpoint`` (an
        enabled :class:`~repro.runtime.checkpoint.CheckpointPolicy`)
        snapshots the state every ``interval`` steps and restarts the
        job from the latest committed checkpoint on data loss, instead
        of failing — results stay bit-identical to a fault-free run.
        ``sanitize`` attaches SimSan (the observe-only runtime
        sanitizer: write-race detection, per-superstep shadow counter
        reconciliation, span discipline); None defers to the
        ``REPRO_SANITIZE`` environment variable.
        """
        mapreduce = isinstance(app, MapReduceApp)
        if not mapreduce and not isinstance(app, PropagationApp):
            raise JobError(
                f"{type(app).__name__} is neither a PropagationApp nor a "
                "MapReduceApp"
            )
        foreign = ({"cascaded": cascaded, "frontier": frontier}
                   if mapreduce else {"combiner": combiner})
        misplaced = [name for name, asked in foreign.items() if asked]
        if misplaced:
            raise JobError(
                f"{app.name}: {', '.join(misplaced)} does not apply to "
                f"{'MapReduce' if mapreduce else 'propagation'} jobs"
            )
        if steps < 1:
            raise JobError(
                f"{'rounds' if mapreduce else 'iterations'} must be >= 1")
        converged = getattr(app, "converged", None)
        if until_convergence and converged is None:
            raise JobError(
                f"{app.name}: until_convergence needs a converged() hook"
            )
        if frontier:
            if cascaded:
                raise JobError(
                    "frontier mode is incompatible with cascaded "
                    "propagation (cascading models dense value I/O)"
                )
            if not getattr(app, "uses_frontier", False):
                raise JobError(
                    f"{app.name}: frontier=True requires a frontier app "
                    "(uses_frontier=True with a frontier() hook)"
                )
        self.cluster.reset()
        # the job's own replica map: the scheduler applies failures and
        # repairs to it, a restart swaps it, self.store stays as deployed
        store = self.store.copy()
        scheduler = StageScheduler(self.cluster, fault_plan, store,
                                   pipelined=pipelined,
                                   speculation=speculation,
                                   events=self._event_stream())
        self._attach_sanitizer(scheduler, sanitize)

        fractions = None
        if cascaded and steps > 1:
            info = compute_cascade_info(self.pgraph)
            phase = min(info.d_min, steps)
            fractions = cascade_io_fractions(self.pgraph, info, phase)

        def make_engine(
            store: PartitionStore, assignment: Any,
        ) -> PropagationEngine | MapReduceEngine:
            if mapreduce:
                return MapReduceEngine(self.pgraph, store, self.cluster,
                                       assignment=assignment,
                                       vectorized=vectorized,
                                       combiner=combiner)
            return PropagationEngine(
                self.pgraph, store, self.cluster,
                local_opts=local_opts, values_io_fraction=fractions,
                assignment=assignment, vectorized=vectorized,
                frontier=frontier,
            )

        def run_step(engine: Any, state: Any) -> tuple[Any, Any]:
            step = engine.run_round if mapreduce else engine.run_iteration
            return step(app, state, scheduler)

        return self._run_job(app, steps, until_convergence, converged,
                             scheduler, store, checkpoint, make_engine,
                             run_step)

    def run_propagation(self, app: PropagationApp, iterations: int = 1,
                        **options: Any) -> JobResult:
        """:meth:`run` under the propagation primitive's name."""
        return self.run(app, iterations, **options)

    def run_mapreduce(self, app: MapReduceApp, rounds: int = 1,
                      **options: Any) -> JobResult:
        """:meth:`run` under the MapReduce primitive's name."""
        return self.run(app, rounds, **options)

    # ------------------------------------------------------------------
    def _run_job(
        self,
        app: Any,
        steps: int,
        until: bool,
        converged: Callable[[Any], bool] | None,
        scheduler: StageScheduler,
        store: PartitionStore,
        checkpoint: CheckpointPolicy | None,
        make_engine: Callable[[PartitionStore, Any], Any],
        run_step: Callable[[Any, Any], tuple[Any, Any]],
    ) -> JobResult:
        """The shared driver loop behind both primitives.

        Runs ``steps`` barrier steps with optional checkpointing, and —
        when a :class:`CheckpointPolicy` is enabled — turns
        ``DataLossError`` / ``SchedulingError`` into a bounded sequence
        of restart-from-checkpoint attempts with exponential backoff.
        Without a policy the pre-checkpoint behaviour is preserved
        exactly: data loss yields a clean failed job, scheduling errors
        propagate.  ``store`` (the scheduler's) and ``assignment`` are the
        job's own replica map and dispatch; a restart replaces both.
        """
        assignment = self.assignment.copy()
        ckpt: CheckpointStore | None = None
        if checkpoint is not None and checkpoint.enabled:
            ckpt = CheckpointStore(checkpoint, self.pgraph,
                                   scheduler.events)
        state = app.setup(self.pgraph)
        reports: list[Any] = []
        restarts = 0
        completed = 0
        restarting = False
        while True:
            try:
                if restarting:
                    restarting = False
                    assert ckpt is not None
                    completed, state, store, assignment = self._restore(
                        ckpt, scheduler, restarts)
                    if state is None:
                        # data was lost before the first checkpoint
                        # committed: restart from scratch
                        state = app.setup(self.pgraph)
                    del reports[completed:]
                if ckpt is not None and ckpt.latest() is None:
                    self._write_checkpoint(ckpt, scheduler, store,
                                           assignment, state, 0)
                engine = make_engine(store, assignment)
                while completed < steps:
                    out, report = run_step(engine, state)
                    apply_outputs(app, state, out)
                    reports.append(report)
                    completed += 1
                    if until and converged is not None and converged(state):
                        break
                    if (ckpt is not None and completed < steps
                            and completed % ckpt.policy.interval == 0):
                        self._write_checkpoint(ckpt, scheduler, store,
                                               assignment, state, completed)
                return JobResult(
                    result=app.finalize(state),
                    metrics=self.cluster.metrics(),
                    reports=reports,
                    events=scheduler.events,
                    restarts=restarts,
                    checkpoints=len(ckpt.checkpoints) if ckpt else 0,
                )
            except (DataLossError, SchedulingError) as exc:
                if ckpt is None:
                    if isinstance(exc, DataLossError):
                        return self._failed_job(scheduler, reports, exc)
                    raise
                if (restarts >= ckpt.policy.max_restarts
                        or not self.cluster.alive_machines()):
                    reason = JobError(
                        f"restart budget exhausted after {restarts} "
                        f"restart(s): {exc}"
                    ) if self.cluster.alive_machines() else JobError(
                        f"no machines left alive to restart on: {exc}"
                    )
                    return self._failed_job(
                        scheduler, reports, reason, restarts=restarts,
                        checkpoints=len(ckpt.checkpoints),
                    )
                restarts += 1
                restarting = True

    def _write_checkpoint(self, ckpt: CheckpointStore,
                          scheduler: StageScheduler, store: PartitionStore,
                          assignment: Any, state: Any, step: int) -> None:
        """Snapshot ``state`` and run the priced checkpoint-write stage.

        The snapshot is committed only after the stage completes; a
        write interrupted by data loss leaves the previous checkpoint as
        the latest consistent one.
        """
        snapshot = ckpt.snapshot_state(state)
        tasks, nbytes = ckpt.write_tasks(store, assignment, step)
        scheduler.run_stage(tasks)
        ckpt.commit(step, snapshot, nbytes)

    def _restore(
        self, ckpt: CheckpointStore, scheduler: StageScheduler, attempt: int,
    ) -> tuple[int, Any, PartitionStore, Any]:
        """One restart attempt: rebuild replicas, reload the checkpoint.

        Survivor replica sets of the job's current store — the
        scheduler's, which an interrupted earlier restore already
        replaced — are recomputed
        from the alive machines; partitions that lost every replica come
        back from the durable tier onto the least-loaded survivor; the
        (placement-aware) re-replication then restores the replication
        factor, and the checkpointed state is read back — all as one
        foreground restore stage whose tasks start no earlier than the
        exponential-backoff deadline.  Returns ``(step, state, store, assignment)`` to resume
        from — the rebuilt store, also handed to the scheduler, and its
        rebalanced dispatch — with ``state=None`` when no checkpoint had
        committed yet.
        """
        cluster = self.cluster
        old = scheduler.store
        chk = ckpt.latest()
        step = chk.step if chk is not None else 0
        backoff = ckpt.policy.backoff(attempt)
        now = max((m.clock for m in cluster.machines), default=0.0)
        ready = now + backoff
        metrics = scheduler.events.metrics
        metrics.add("checkpoint.restart_attempts")
        metrics.add("checkpoint.backoff_seconds", backoff)
        scheduler.note_recovery(
            ready, "job-restart",
            task=f"from checkpoint @ superstep {step}",
        )

        alive = cluster.alive_machines()
        alive_set = set(alive)
        load = {m: 0 for m in alive}
        sets: list[list[int]] = []
        restored: list[int] = []
        for p in range(old.num_partitions):
            survivors = [m for m in old.replicas(p) if m in alive_set]
            for m in survivors:
                load[m] += 1
            sets.append(survivors)
        for p, survivors in enumerate(sets):
            if not survivors:
                dst = min(alive, key=lambda m: (load[m], m))
                survivors.append(dst)
                load[dst] += 1
                restored.append(p)
        dead = set(range(cluster.num_machines)) - alive_set
        new_store = PartitionStore.from_replica_sets(
            sets, cluster.num_machines, old.replication,
            partition_bytes=old.partition_bytes,
            failed=dead,
            topology=cluster.topology,
        )
        copies = new_store.re_replicate(alive)
        scheduler.store = new_store
        assignment = rebalance_placement(
            new_store, estimate_partition_costs(self.pgraph)
        )
        tasks, state_bytes, durable_bytes = ckpt.restore_tasks(
            new_store, assignment, restored, copies, ready
        )
        scheduler.run_stage(tasks)  # may raise -> next restart attempt
        metrics.add("checkpoint.restores")
        metrics.add("checkpoint.bytes_read", state_bytes + durable_bytes)
        metrics.add("checkpoint.restored_partitions", len(restored))
        if chk is None:
            return 0, None, new_store, assignment
        return (chk.step, ckpt.snapshot_state(chk.state), new_store,
                assignment)

    def _attach_sanitizer(self, scheduler: StageScheduler,
                          sanitize: bool | None) -> None:
        """Attach SimSan to a fresh scheduler when the run opts in.

        The writable-view audit of the shard-backed graph runs here,
        before any stage executes, so a mis-served store fails the job
        at attach time rather than corrupting a run.
        """
        if not sanitize_enabled(sanitize):
            return
        sanitizer = Sanitizer()
        sanitizer.check_graph(self.graph)
        scheduler.sanitizer = sanitizer

    def _event_stream(self) -> EventStream:
        """A fresh per-job observability stream, bound to the network.

        The network model holds a reference to the *current* job's
        metrics registry; rebinding per run keeps a finished
        :class:`JobResult`'s stream frozen while the cluster is reused.
        """
        events = EventStream()
        self.cluster.network.metrics = events.metrics
        return events

    def _failed_job(self, scheduler: StageScheduler, reports: list,
                    exc: Exception, restarts: int = 0,
                    checkpoints: int = 0) -> JobResult:
        """A clean failed-job result after unrecoverable data loss."""
        return JobResult(
            result=None,
            metrics=self.cluster.metrics(),
            reports=reports,
            failed=True,
            error=str(exc),
            events=scheduler.events,
            restarts=restarts,
            checkpoints=checkpoints,
        )


def apply_outputs(app: Any, state: Any, out: Any) -> None:
    """Fold one step's outputs into ``state``.

    The one place that decides dict vs columns, for both primitives:
    the array paths return ``(keys, values)`` columns — the propagation
    engine's Combine output, or a MapReduce round every reducer of
    which answered ``reduce_array`` — and those go to ``update_array``,
    unless the app overrides ``update`` alone, whose dict it then gets,
    as does every app on a dict-producing path (the scalar engine
    paths, a MapReduce round with a declining reducer).
    """
    if isinstance(out, dict):
        app.update(state, out)
        return
    keys, values = out
    cls = type(app)
    base = MapReduceApp if isinstance(app, MapReduceApp) else PropagationApp
    if (cls.update_array is base.update_array
            and cls.update is not base.update):
        if not isinstance(values, list):
            values = values.tolist()
        app.update(state, dict(zip(keys.tolist(), values)))
    else:
        app.update_array(state, keys, values)


def default_num_parts(num_machines: int) -> int:
    """Two partitions per machine, rounded up to a power of two.

    The paper uses 64 partitions on 32 machines (2 GB partitions on 8 GB
    machines); two-per-machine keeps that ratio at any cluster size.
    """
    target = max(2, 2 * num_machines)
    return 1 << (target - 1).bit_length()
