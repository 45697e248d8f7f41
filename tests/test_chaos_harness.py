"""Randomized chaos sweeps: the recovery invariant under seeded fuzzing.

Property-style: ≥50 seeded random fault schedules across three apps and
both engines must each end bit-identical to the fault-free baseline or
as a cleanly-reported failure, with the trace reconciling either way.
The sweep sizes keep each class under a few seconds (the simulated jobs
are tiny); the seeds are fixed so a failure here is replayable with
``repro chaos --seed``.
"""

import numpy as np
import pytest

from repro.apps import (
    ConnectedComponentsPropagation,
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
    RecommenderPropagation,
)
from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.graph.generators import composite_social_graph
from repro.runtime.chaos import (
    random_fault_plan,
    results_identical,
    run_chaos_sweep,
)
from repro.runtime.checkpoint import CheckpointPolicy
from tests.conftest import make_test_cluster


@pytest.fixture(scope="module")
def chaos_graph():
    return composite_social_graph(num_communities=4, community_size=32,
                                  k=4, seed=7)


def deploy(graph, replication):
    return Surfer(graph, make_test_cluster(8), num_parts=8,
                  replication=replication, seed=3)


def prop_runner(app_cls, iterations, until=False):
    policy = CheckpointPolicy(interval=1)

    def run_job(surfer, plan):
        return surfer.run_propagation(
            app_cls(), iterations=iterations, until_convergence=until,
            fault_plan=plan,
            checkpoint=policy if plan is not None else None,
        )

    return run_job


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        plans = []
        for _ in range(2):
            rng = np.random.default_rng([9, 4])
            plans.append(random_fault_plan(rng, 8, 100.0,
                                           replica_sets=[[0, 1], [2, 3]]))
        a, b = plans
        assert [(k.machine, k.time) for k in a.kills] \
            == [(k.machine, k.time) for k in b.kills]
        assert [(t.machine, t.time, t.downtime) for t in a.transients] \
            == [(t.machine, t.time, t.downtime) for t in b.transients]
        assert [(s.machine, s.time, s.duration, s.factor)
                for s in a.slowdowns] \
            == [(s.machine, s.time, s.duration, s.factor)
                for s in b.slowdowns]

    def test_different_indices_differ(self):
        plans = [
            random_fault_plan(np.random.default_rng([9, i]), 8, 100.0)
            for i in range(10)
        ]
        signatures = {
            tuple((k.machine, k.time) for k in p.kills) for p in plans
        }
        assert len(signatures) > 1

    def test_kill_budget_respected(self):
        for i in range(20):
            rng = np.random.default_rng([1, i])
            plan = random_fault_plan(rng, 8, 50.0, max_kills=3)
            assert len(plan.kills) <= 3

    def test_sweep_needs_schedules(self, chaos_graph):
        surfer = deploy(chaos_graph, replication=1)
        with pytest.raises(JobError):
            run_chaos_sweep(surfer, prop_runner(NetworkRankingPropagation,
                                              3), 0, 1)


class TestResultsIdentical:
    def test_arrays(self):
        a = np.arange(4, dtype=np.float64)
        assert results_identical(a, a.copy())
        assert not results_identical(a, a.astype(np.float32))
        assert not results_identical(a, a[:3])
        assert not results_identical(a, list(a))
        b = a.copy()
        b[2] += 1e-12
        assert not results_identical(a, b)

    def test_containers(self):
        a = {"x": np.ones(3), "y": [1, 2]}
        b = {"x": np.ones(3), "y": [1, 2]}
        assert results_identical(a, b)
        b["y"] = (1, 2)
        assert not results_identical(a, b)
        assert not results_identical({"x": 1}, {"z": 1})

    def test_scalars(self):
        assert results_identical(3, 3)
        assert not results_identical(3, 3.5)


class TestChaosSweeps:
    """The ≥50-schedule acceptance sweep, split across workloads."""

    def test_nr_propagation_replication1(self, chaos_graph):
        report = run_chaos_sweep(
            deploy(chaos_graph, replication=1),
            prop_runner(NetworkRankingPropagation, 4),
            schedules=18, seed=101,
        )
        assert report.ok, report.summary()
        # replication=1 makes total loss common: restarts must trigger
        assert report.total_restarts > 0

    def test_cc_propagation_replication2(self, chaos_graph):
        graph = chaos_graph.symmetrized()
        report = run_chaos_sweep(
            deploy(graph, replication=2),
            prop_runner(ConnectedComponentsPropagation, 20, until=True),
            schedules=16, seed=202,
        )
        assert report.ok, report.summary()

    def test_rs_propagation_replication1(self, chaos_graph):
        report = run_chaos_sweep(
            deploy(chaos_graph, replication=1),
            prop_runner(RecommenderPropagation, 3),
            schedules=16, seed=303,
        )
        assert report.ok, report.summary()
        assert report.total_restarts > 0

    def test_nr_mapreduce_replication1(self, chaos_graph):
        policy = CheckpointPolicy(interval=1)

        def run_job(surfer, plan):
            return surfer.run_mapreduce(
                NetworkRankingMapReduce(), rounds=3, fault_plan=plan,
                checkpoint=policy if plan is not None else None,
            )

        report = run_chaos_sweep(
            deploy(chaos_graph, replication=1), run_job,
            schedules=8, seed=404,
        )
        assert report.ok, report.summary()

    def test_sweep_outcome_bookkeeping(self, chaos_graph):
        report = run_chaos_sweep(
            deploy(chaos_graph, replication=1),
            prop_runner(NetworkRankingPropagation, 3),
            schedules=6, seed=55,
        )
        assert len(report.outcomes) == 6
        assert report.identical + report.clean_failures == 6
        assert [o.index for o in report.outcomes] == list(range(6))
        if report.restarted_job is not None:
            assert report.restarted_job.restarts == max(
                o.restarts for o in report.outcomes
                if o.status == "identical"
            )

    def test_per_job_wall_clocks_recorded(self, chaos_graph):
        report = run_chaos_sweep(
            deploy(chaos_graph, replication=1),
            prop_runner(NetworkRankingPropagation, 4),
            schedules=18, seed=101,
        )
        assert report.ok, report.summary()
        # every job gets its own wall clock — the whole-sweep wall used
        # to be stamped on baseline and restarted records alike
        assert report.baseline_wall_s > 0.0
        assert all(o.wall_s > 0.0 for o in report.outcomes)
        assert report.restarted_job is not None
        assert report.restarted_wall_s > 0.0
        assert report.restarted_wall_s != report.baseline_wall_s
        assert report.restarted_wall_s in {
            o.wall_s for o in report.outcomes}

    def test_without_checkpoint_losses_are_clean_failures(self,
                                                          chaos_graph):
        def run_job(surfer, plan):
            return surfer.run_propagation(
                NetworkRankingPropagation(), iterations=3,
                fault_plan=plan,
            )

        report = run_chaos_sweep(
            deploy(chaos_graph, replication=1), run_job,
            schedules=6, seed=77,
        )
        assert report.ok, report.summary()
        assert report.total_restarts == 0
