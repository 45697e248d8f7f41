"""Checkpoint/restore with job-level restart.

Covers the :class:`CheckpointPolicy` contract, snapshot semantics, the
priced write/restore stages, the end-to-end restart-from-checkpoint
acceptance scenario (a job that previously died with DataLossError now
completes bit-identically), exhausted-retries clean failure, and the
storage-layer satellites (placement-aware re-replication, degraded
replica sets, explicit replica-set construction).
"""

import numpy as np
import pytest

from repro.apps import (
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
)
from repro.cluster.faults import FaultPlan
from repro.cluster.storage import PartitionStore
from repro.cluster.topology import t2
from repro.core.partitioned import PartitionedGraph
from repro.core.surfer import Surfer
from repro.errors import JobError, PlacementError
from repro.runtime.checkpoint import CheckpointPolicy, CheckpointStore
from repro.runtime.events import EventStream, reconcile
from repro.runtime.monitor import JobMonitor
from tests.conftest import make_test_cluster


def deploy(graph, machines=4, parts=8, replication=1, seed=3,
           topology=None):
    return Surfer(graph, make_test_cluster(machines, topology=topology),
                  num_parts=parts, seed=seed, replication=replication)


class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(JobError):
            CheckpointPolicy(interval=-1)
        with pytest.raises(JobError):
            CheckpointPolicy(interval=1, max_restarts=-1)
        with pytest.raises(JobError):
            CheckpointPolicy(interval=1, backoff_base=-1.0)
        with pytest.raises(JobError):
            CheckpointPolicy(interval=1, backoff_factor=0.5)

    def test_enabled(self):
        assert not CheckpointPolicy().enabled
        assert not CheckpointPolicy(interval=0).enabled
        assert CheckpointPolicy(interval=2).enabled

    def test_exponential_backoff(self):
        policy = CheckpointPolicy(interval=1, backoff_base=10.0,
                                  backoff_factor=3.0)
        assert policy.backoff(1) == 10.0
        assert policy.backoff(2) == 30.0
        assert policy.backoff(3) == 90.0
        with pytest.raises(JobError):
            policy.backoff(0)

    def test_store_rejects_disabled_policy(self, tiny_graph):
        surfer = deploy(tiny_graph)
        with pytest.raises(JobError):
            CheckpointStore(CheckpointPolicy(), surfer.pgraph,
                            EventStream())


class TestSnapshots:
    def test_snapshot_copies_values_but_shares_graph(self, tiny_graph):
        surfer = deploy(tiny_graph)
        ckpt = CheckpointStore(CheckpointPolicy(interval=1),
                               surfer.pgraph, EventStream())
        app = NetworkRankingPropagation()
        state = app.setup(surfer.pgraph)
        snap = ckpt.snapshot_state(state)
        assert snap is not state
        # the (immutable) partitioned graph must be shared, not copied
        for attr in ("pgraph", "graph"):
            if hasattr(state, attr):
                assert getattr(snap, attr) is getattr(state, attr)
        # the values must be an independent copy
        state.values[:] = -1.0
        assert not np.array_equal(snap.values, state.values)

    def test_write_tasks_shapes_and_bytes(self, tiny_graph):
        surfer = deploy(tiny_graph, replication=2)
        ckpt = CheckpointStore(CheckpointPolicy(interval=1),
                               surfer.pgraph, EventStream())
        tasks, total = ckpt.write_tasks(surfer.store, surfer.assignment, 3)
        state_bytes = sum(ckpt.state_nbytes(p)
                          for p in range(surfer.store.num_partitions))
        # replication=2: every byte is written twice (writer + replica)
        assert total == 2 * state_bytes
        writers = [t for t in tasks if t.partition is not None]
        receivers = [t for t in tasks if t.partition is None]
        assert len(writers) == surfer.store.num_partitions
        assert all(t.kind == "checkpoint" for t in tasks)
        assert all(t.name.startswith("ckpt[3]") for t in tasks)
        # the receive side must carry the same bytes the writers send
        sent = sum(b for t in writers for _, b in t.sends)
        recv = sum(t.disk_write_bytes for t in receivers)
        assert sent == recv

    def test_commit_counts(self, tiny_graph):
        surfer = deploy(tiny_graph)
        events = EventStream()
        ckpt = CheckpointStore(CheckpointPolicy(interval=1),
                               surfer.pgraph, events)
        assert ckpt.latest() is None
        ckpt.commit(0, object(), 100)
        ckpt.commit(2, object(), 100)
        assert ckpt.latest().step == 2
        assert events.metrics.get("checkpoint.checkpoints") == 2
        assert events.metrics.get("checkpoint.bytes_written") == 200


class TestJobRestart:
    """The acceptance scenario: total partition loss, restart, recover."""

    def test_restart_is_bit_identical(self, tiny_graph):
        baseline = deploy(tiny_graph).run_propagation(
            NetworkRankingPropagation(), iterations=4
        )
        assert not baseline.failed

        surfer = deploy(tiny_graph)
        plan = FaultPlan().add_kill(surfer.store.primary(0), 1.0)
        # without a checkpoint policy this exact scenario dies with a
        # DataLossError (see test_data_loss_returns_clean_failed_job)
        job = surfer.run_propagation(
            NetworkRankingPropagation(), iterations=4, fault_plan=plan,
            checkpoint=CheckpointPolicy(interval=1),
        )
        assert not job.failed
        assert job.restarts >= 1
        assert job.checkpoints >= 1
        assert np.array_equal(baseline.result, job.result)
        # recovery made the run slower, not cheaper
        assert job.response_time > baseline.response_time
        assert reconcile(job) == []
        kinds = {e.kind for e in job.events.instants}
        assert "job-restart" in kinds and "data-loss" in kinds
        m = job.events.metrics
        assert m.get("checkpoint.restart_attempts") >= 1
        assert m.get("checkpoint.restores") >= 1
        assert m.get("checkpoint.bytes_read") > 0
        assert m.get("checkpoint.backoff_seconds") > 0

    def test_monitor_reports_restart(self, tiny_graph):
        surfer = deploy(tiny_graph)
        plan = FaultPlan().add_kill(surfer.store.primary(0), 1.0)
        job = surfer.run_propagation(
            NetworkRankingPropagation(), iterations=4, fault_plan=plan,
            checkpoint=CheckpointPolicy(interval=1),
        )
        monitor = JobMonitor(job.events)
        summary = monitor.restart_summary()
        assert summary is not None
        assert summary.startswith(f"restarted {job.restarts}×")
        assert "from checkpoint @ superstep" in summary
        assert summary in monitor.report()

    def test_no_restart_line_without_restarts(self, tiny_graph):
        job = deploy(tiny_graph).run_propagation(
            NetworkRankingPropagation(), iterations=2
        )
        monitor = JobMonitor(job.events)
        assert monitor.restart_summary() is None
        assert "restarted" not in monitor.report()

    def test_restart_before_first_interval_checkpoint(self, tiny_graph):
        """interval > iterations: recovery replays from superstep 0."""
        baseline = deploy(tiny_graph).run_propagation(
            NetworkRankingPropagation(), iterations=3
        )
        surfer = deploy(tiny_graph)
        plan = FaultPlan().add_kill(surfer.store.primary(0), 1.0)
        job = surfer.run_propagation(
            NetworkRankingPropagation(), iterations=3, fault_plan=plan,
            checkpoint=CheckpointPolicy(interval=10),
        )
        assert not job.failed
        assert job.restarts >= 1
        assert np.array_equal(baseline.result, job.result)
        assert reconcile(job) == []

    def test_second_restart_resumes_from_the_interrupted_restore(
            self, tiny_graph):
        """A loss during the first restore stage: the second restart
        rebuilds from the replica map that stage left behind, so only
        the partitions the new victim held come back from the durable
        tier — not the ones the first restore re-homed elsewhere."""
        policy = CheckpointPolicy(interval=1)
        surfer = deploy(tiny_graph)
        first = surfer.store.primary(0)
        once = surfer.run_propagation(
            NetworkRankingPropagation(), iterations=4,
            fault_plan=FaultPlan().add_kill(first, 1.0), checkpoint=policy,
        )
        rehomed = [s for s in once.events.task_spans()
                   if s.name.startswith("restore-durable")]
        assert len(rehomed) >= 2  # some re-homed partition stays alive
        # kill the new holder of a re-homed partition mid-restore
        victim = rehomed[0]
        second = victim.machine
        held = {p for p in range(surfer.num_parts)
                if surfer.store.primary(p) == second}
        held |= {int(s.name.rsplit(" p", 1)[1]) for s in rehomed
                 if s.machine == second}
        plan = (FaultPlan().add_kill(first, 1.0)
                .add_kill(second, victim.start
                          + 0.1 * (victim.end - victim.start)))
        job = surfer.run_propagation(
            NetworkRankingPropagation(), iterations=4, fault_plan=plan,
            checkpoint=policy,
        )
        assert not job.failed and job.restarts == 2
        assert np.array_equal(once.result, job.result)
        assert reconcile(job) == []
        # counted once, by the restore stage that completed
        assert job.events.metrics.get(
            "checkpoint.restored_partitions") == len(held)

    def test_exhausted_restart_budget_fails_cleanly(self, tiny_graph):
        surfer = deploy(tiny_graph, machines=4, replication=1)
        plan = FaultPlan()
        # stagger kills so each restart meets a fresh total loss
        victims = sorted({surfer.store.primary(p)
                          for p in range(surfer.store.num_partitions)})
        for i, m in enumerate(victims):
            plan.add_kill(m, 1.0 + 30.0 * i)
        job = surfer.run_propagation(
            NetworkRankingPropagation(), iterations=4, fault_plan=plan,
            checkpoint=CheckpointPolicy(interval=1, max_restarts=1),
        )
        assert job.failed
        assert job.result is None
        assert job.restarts == 1
        assert job.error is not None
        assert ("restart budget exhausted" in job.error
                or "no machines left alive" in job.error)
        assert reconcile(job) == []

    def test_fault_free_checkpointed_run_identical_but_costlier(
            self, tiny_graph):
        plain = deploy(tiny_graph).run_propagation(
            NetworkRankingPropagation(), iterations=4
        )
        job = deploy(tiny_graph).run_propagation(
            NetworkRankingPropagation(), iterations=4,
            checkpoint=CheckpointPolicy(interval=2),
        )
        assert not job.failed and job.restarts == 0
        # iterations=4, interval=2 -> checkpoints at steps 0 and 2
        assert job.checkpoints == 2
        assert np.array_equal(plain.result, job.result)
        assert job.metrics.disk_bytes > plain.metrics.disk_bytes
        assert reconcile(job) == []

    def test_mapreduce_restart_is_bit_identical(self, tiny_graph):
        baseline = deploy(tiny_graph).run_mapreduce(
            NetworkRankingMapReduce(), rounds=3
        )
        surfer = deploy(tiny_graph)
        plan = FaultPlan().add_kill(surfer.store.primary(0), 1.0)
        job = surfer.run_mapreduce(
            NetworkRankingMapReduce(), rounds=3, fault_plan=plan,
            checkpoint=CheckpointPolicy(interval=1),
        )
        assert not job.failed
        assert job.restarts >= 1
        assert np.array_equal(baseline.result, job.result)
        assert reconcile(job) == []

    def test_mapreduce_restart_replays_shared_plans(self, tiny_graph,
                                                    monkeypatch):
        """Three checkpointed NR MapReduce rounds, a kill in the second:
        the restart resumes from a snapshot that shares the deployment,
        and with it the rank tables its destination indexes hold (no
        copy in any snapshot), and builds a new engine with new shuffle
        plans.  Result
        and every cost equal the scalar oracle's under the same fault,
        and the result and every round's shuffle volume the clean job's
        (its network bytes moved with the dead machine's partitions)."""
        snapshots = []
        snapshot_state = CheckpointStore.snapshot_state

        def recording(store, state):
            snapshot = snapshot_state(store, state)
            snapshots.append((state, snapshot))
            return snapshot

        monkeypatch.setattr(CheckpointStore, "snapshot_state", recording)
        built = []
        route_plan = PartitionedGraph.route_plan

        def counted(pgraph, *args):
            built.append(args[-1])
            return route_plan(pgraph, *args)

        monkeypatch.setattr(PartitionedGraph, "route_plan", counted)
        policy = CheckpointPolicy(interval=1)
        clean = deploy(tiny_graph).run_mapreduce(
            NetworkRankingMapReduce(), rounds=3, checkpoint=policy,
            vectorized=True)
        second = clean.reports[1]
        kill_at = (second.map_stage.start
                   + second.reduce_stage.end) / 2
        jobs = {}
        for vectorized in (False, True):
            snapshots.clear()
            built.clear()
            surfer = deploy(tiny_graph)
            faults = FaultPlan().add_kill(surfer.store.primary(0), kill_at)
            jobs[vectorized] = surfer.run_mapreduce(
                NetworkRankingMapReduce(), rounds=3, fault_plan=faults,
                checkpoint=policy, vectorized=vectorized)
        oracle, job = jobs[False], jobs[True]
        assert not job.failed and job.restarts == 1
        assert np.array_equal(job.result, oracle.result)
        assert job.reports == oracle.reports
        assert job.events.task_spans() == oracle.events.task_spans()
        assert job.metrics == oracle.metrics
        assert np.array_equal(job.result, clean.result)
        volumes = [[(r.map_records, r.shuffle_records, r.shuffle_bytes)
                    for r in run.reports] for run in (clean, job)]
        assert volumes[0] == volumes[1]
        assert reconcile(job) == []
        # every checkpoint and restore copies the ranks and shares the
        # deployment, whose tables were built once: the restarted job
        # read the ones the first attempt built
        assert snapshots
        for state, snapshot in snapshots:
            assert snapshot.values is not state.values
            assert snapshot.pgraph is state.pgraph
        assert sorted(built) == list(range(surfer.pgraph.num_parts))


class TestStorageSatellites:
    def test_placement_aware_repair_prefers_same_pod(self):
        # 8 machines in 4 pods of 2; partition 0's primary is machine 0,
        # its pod sibling is machine 1.  With equal load the repair copy
        # must land on the sibling (highest bandwidth to the primary).
        topo = t2(4, 1, 8)
        store = PartitionStore.from_replica_sets(
            [[0], [2], [4], [6]], 8, replication=2, topology=topo,
        )
        copies = store.re_replicate(range(8))
        assert (0, 0, 1) in copies
        for p, src, dst in copies:
            assert topo.pod_of(src) == topo.pod_of(dst)

    def test_topology_free_repair_is_least_loaded_lowest_id(self):
        store = PartitionStore.from_replica_sets(
            [[0], [1]], 4, replication=2,
        )
        copies = store.re_replicate(range(4))
        # machines 2 and 3 are empty; lowest id breaks the tie
        assert copies == [(0, 0, 2), (1, 1, 3)]

    def test_degraded_replica_set_when_too_few_survivors(self):
        """replication=3 with only 2 alive: repair stops at 2 copies."""
        store = PartitionStore([0, 1], 4, replication=3, seed=0)
        store.handle_failure(2)
        store.handle_failure(3)
        copies = store.re_replicate([0, 1])
        for p in range(2):
            assert sorted(store.replicas(p)) == [0, 1]
            assert len(store.replicas(p)) == 2 < store.replication
        assert store.under_replicated() == [0, 1]
        # a second pass must be a no-op, not an infinite loop
        assert store.re_replicate([0, 1]) == []
        assert copies  # the first pass did copy up to the survivor count

    def test_from_replica_sets_validation(self):
        with pytest.raises(PlacementError):
            PartitionStore.from_replica_sets([[0]], 2, replication=0)
        with pytest.raises(PlacementError):
            PartitionStore.from_replica_sets([[]], 2, replication=1)
        with pytest.raises(PlacementError):
            PartitionStore.from_replica_sets([[5]], 2, replication=1)
        with pytest.raises(PlacementError):
            PartitionStore.from_replica_sets([[0]], 2, replication=1,
                                             failed=[0])
        with pytest.raises(PlacementError):
            PartitionStore.from_replica_sets([[0, 0]], 2, replication=1)
        with pytest.raises(PlacementError):
            PartitionStore.from_replica_sets([[0]], 2, replication=1,
                                             partition_bytes=[1, 2])

    def test_from_replica_sets_roundtrip(self):
        store = PartitionStore.from_replica_sets(
            [[1, 2], [2, 0]], 3, replication=2, partition_bytes=[10, 20],
        )
        assert store.num_partitions == 2
        assert store.primary(0) == 1
        assert store.replicas(1) == [2, 0]
        assert store.partition_nbytes(1) == 20
        assert store.under_replicated() == []
