"""Integration tests for the Surfer facade."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    BreadthFirstSearchPropagation,
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
)
from repro.cluster.cluster import partitions_for_memory
from repro.cluster.faults import FaultPlan
from repro.core.bandwidth_aware import bandwidth_aware_partition
from repro.core.surfer import (
    ALL_LEVELS,
    O1,
    O4,
    Surfer,
    default_num_parts,
)
from repro.errors import JobError
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.events import reconcile
from tests.conftest import make_test_cluster


class TestConstruction:
    def test_default_num_parts(self):
        assert default_num_parts(32) == 64
        assert default_num_parts(24) == 64   # next power of two
        assert default_num_parts(1) == 2

    def test_layouts(self, small_graph):
        for layout in ("bandwidth-aware", "oblivious"):
            s = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                       layout=layout, seed=0)
            assert s.layout == layout
            assert s.num_parts == 8

    def test_rejects_unknown_layout(self, small_graph):
        with pytest.raises(JobError):
            Surfer(small_graph, make_test_cluster(4), num_parts=8,
                   layout="psychic")

    def test_same_partitions_across_layouts(self, small_graph):
        a = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                   layout="bandwidth-aware", seed=0)
        b = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                   layout="oblivious", seed=0)
        assert np.array_equal(a.plan.parts, b.plan.parts)

    def test_assignment_stays_on_replicas(self, shared_surfer):
        for p in range(shared_surfer.num_parts):
            assert (shared_surfer.assignment[p]
                    in shared_surfer.store.replicas(p))

    def test_replication_capped_by_machines(self, small_graph):
        s = Surfer(small_graph, make_test_cluster(2), num_parts=4,
                   replication=5, seed=0)
        assert len(s.store.replicas(0)) == 2

    def test_optimization_level_constants(self):
        assert len(ALL_LEVELS) == 4
        assert not O1.bandwidth_aware_layout and not O1.local_optimizations
        assert O4.bandwidth_aware_layout and O4.local_optimizations


class TestRuns:
    def test_propagation_and_mapreduce_share_cluster(self, small_graph):
        from repro.apps import NetworkRankingMapReduce
        s = Surfer(small_graph, make_test_cluster(4), num_parts=8, seed=0)
        prop = s.run_propagation(NetworkRankingPropagation())
        mr = s.run_mapreduce(NetworkRankingMapReduce())
        assert np.allclose(prop.result, mr.result)

    def test_determinism(self, small_graph):
        runs = []
        for _ in range(2):
            s = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                       seed=1)
            job = s.run_propagation(NetworkRankingPropagation(),
                                    iterations=2)
            runs.append(job)
        assert np.array_equal(runs[0].result, runs[1].result)
        assert (runs[0].metrics.response_time
                == runs[1].metrics.response_time)
        assert (runs[0].metrics.network_bytes
                == runs[1].metrics.network_bytes)

    def test_executions_recorded(self, small_graph):
        s = Surfer(small_graph, make_test_cluster(4), num_parts=8, seed=0)
        job = s.run_propagation(NetworkRankingPropagation())
        kinds = {e.task.kind for e in job.events.task_spans()}
        assert kinds == {"transfer", "combine"}
        assert len(job.events.task_spans()) == 2 * s.num_parts

    def test_memory_rule_partition_count(self):
        # the paper's setting: 128 GB graph, 2 GB memory budget
        assert partitions_for_memory(128 * 1024**3, 2 * 1024**3) == 64


class TestOneLaunchPath:
    @pytest.fixture(scope="class")
    def surfer(self, tiny_graph):
        return Surfer(tiny_graph, make_test_cluster(4), num_parts=8, seed=2)

    def test_app_class_picks_the_primitive(self, surfer):
        prop = surfer.run(NetworkRankingPropagation(), 2)
        assert [type(r).__name__ for r in prop.reports] == [
            "IterationReport"] * 2
        mr = surfer.run(NetworkRankingMapReduce(), 2)
        assert [type(r).__name__ for r in mr.reports] == ["RoundReport"] * 2
        assert np.allclose(prop.result, mr.result)

    def test_named_entry_points_are_run(self, surfer):
        a = surfer.run_propagation(NetworkRankingPropagation(),
                                   iterations=2, local_opts=False)
        b = surfer.run(NetworkRankingPropagation(), 2, local_opts=False)
        assert np.array_equal(a.result, b.result)
        assert a.metrics == b.metrics

    def test_option_of_the_other_primitive_is_rejected(self, surfer):
        with pytest.raises(JobError, match="frontier does not apply"):
            surfer.run(NetworkRankingMapReduce(), frontier=True)
        with pytest.raises(JobError, match="cascaded does not apply"):
            surfer.run_mapreduce(NetworkRankingMapReduce(), cascaded=True)
        with pytest.raises(JobError, match="combiner does not apply"):
            surfer.run(NetworkRankingPropagation(), combiner=True)

    def test_step_count_errors_keep_their_names(self, surfer):
        with pytest.raises(JobError, match="iterations must be >= 1"):
            surfer.run_propagation(NetworkRankingPropagation(), 0)
        with pytest.raises(JobError, match="rounds must be >= 1"):
            surfer.run_mapreduce(NetworkRankingMapReduce(), rounds=0)

    def test_rejects_a_non_app(self, surfer):
        with pytest.raises(JobError, match="neither"):
            surfer.run(object())


def _kill(surfer):
    return FaultPlan().add_kill(surfer.store.primary(0), 1.0)


#: every kind of job the deployment must survive unchanged; at
#: replication 1 the bare kill is a clean failure and the checkpointed
#: one restarts, at replication 3 both are absorbed by replica promotion
JOBS = {
    "clean NR": lambda s: s.run(NetworkRankingPropagation(), 3),
    "kill": lambda s: s.run(NetworkRankingPropagation(), 3,
                            fault_plan=_kill(s)),
    "kill + checkpoint": lambda s: s.run(
        NetworkRankingPropagation(), 3, fault_plan=_kill(s),
        checkpoint=CheckpointPolicy(interval=1)),
    "transient outage": lambda s: s.run(
        NetworkRankingPropagation(), 3,
        fault_plan=FaultPlan().add_transient(s.store.primary(0), 1.0,
                                             downtime=5.0)),
    "NR MapReduce": lambda s: s.run(NetworkRankingMapReduce(), 2),
    "BFS frontier": lambda s: s.run(
        BreadthFirstSearchPropagation(), 100, until_convergence=True,
        frontier=True),
}


def _deploy(graph, replication):
    return Surfer(graph, make_test_cluster(4), num_parts=8, seed=2,
                  replication=replication)


def _deployed_state(surfer):
    store = surfer.store
    return ([store.replicas(p) for p in range(store.num_partitions)],
            frozenset(store._failed), surfer.assignment.tolist())


def _outcome(job):
    """Everything simulated a job reports; the two real-seconds counters
    (``wall.udf_seconds``, ``scheduler.wall_seconds``) are dropped."""
    counters = {name: value
                for name, value in job.events.metrics.snapshot().items()
                if "wall" not in name}
    result = None if job.result is None else np.asarray(job.result)
    return {
        "failed": job.failed, "error": job.error,
        "restarts": job.restarts, "checkpoints": job.checkpoints,
        "result": result if result is None
        else (result.dtype, result.tobytes()),
        "metrics": job.metrics, "counters": counters,
        "unreconciled": reconcile(job),
    }


class TestJobsLeaveTheDeploymentAlone:
    """A Surfer is a deployment: a job's kills, repairs and restarts end
    with the job, so any job reads the same on a reused Surfer as alone
    on a freshly deployed one."""

    @pytest.fixture(scope="class", params=[1, 3],
                    ids=["replication1", "replication3"])
    def deployment(self, request, tiny_graph):
        alone = {name: _outcome(run(_deploy(tiny_graph, request.param)))
                 for name, run in JOBS.items()}
        surfer = _deploy(tiny_graph, request.param)
        return surfer, _deployed_state(surfer), alone

    def test_the_menu_exercises_recovery(self, deployment):
        surfer, _, alone = deployment
        if surfer.store.replication == 1:
            assert alone["kill"]["failed"]
            assert alone["kill + checkpoint"]["restarts"] >= 1
        else:
            assert alone["kill"]["metrics"].re_replication_bytes > 0
        assert not any(alone[name]["failed"] for name in JOBS
                       if name != "kill" or surfer.store.replication > 1)
        assert alone["transient outage"]["counters"][
            "recovery.machine-recovered"] >= 1
        assert all(o["unreconciled"] == [] for o in alone.values())

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.permutations(sorted(JOBS)))
    def test_any_job_order_reads_like_each_job_alone(self, deployment,
                                                     order):
        surfer, deployed, alone = deployment
        for name in order:
            assert _outcome(JOBS[name](surfer)) == alone[name], name
            assert _deployed_state(surfer) == deployed, name

    def test_the_handed_plan_is_not_written_into(self, small_graph):
        cluster = make_test_cluster(4)
        plan = bandwidth_aware_partition(small_graph, cluster.topology, 8,
                                         seed=2)
        handed = plan.placement.copy()
        first = Surfer(small_graph, cluster, seed=2, plan=plan)
        assert np.array_equal(plan.placement, handed)
        # the refinement did move something, into the Surfer's own plan
        assert not np.array_equal(first.plan.placement, handed)
        second = Surfer(small_graph, make_test_cluster(4), seed=2,
                        plan=plan)
        assert np.array_equal(first.plan.placement, second.plan.placement)
        assert _deployed_state(first) == _deployed_state(second)
