"""Fault-tolerance v2: transient faults, stragglers, speculation,
re-replication.

Unit coverage for the generalized :class:`FaultPlan`, the idempotent
replicated store, and the scheduler's recovery paths (double failures,
failure of a re-assigned machine, kill at t=0, transient recovery
mid-stage, speculative winner/loser accounting), plus end-to-end jobs
surviving double failures and failing cleanly on data loss.
"""

import numpy as np
import pytest

from repro.apps import NetworkRankingPropagation
from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan, Outage
from repro.cluster.spec import MachineSpec
from repro.cluster.storage import PartitionStore
from repro.cluster.topology import t1
from repro.core.surfer import Surfer
from repro.errors import DataLossError, FaultInjectionError, SchedulingError
from repro.runtime.scheduler import MAX_RETRIES, StageScheduler
from repro.runtime.tasks import Task
from repro.runtime.trace import recovery_event_counts
from tests.conftest import make_test_cluster


def make_cluster(n=2):
    spec = MachineSpec(disk_read_bps=100.0, disk_write_bps=100.0,
                       cpu_ops_per_sec=100.0, nic_bps=100.0)
    return Cluster(t1(n, link_bps=100.0), machine_spec=spec)


class TestFaultPlan:
    def test_kill_time_lookup(self):
        plan = FaultPlan().add_kill(3, 7.0).add_kill(1, 2.0)
        assert plan.kill_time(3) == 7.0
        assert plan.kill_time(1) == 2.0
        assert plan.kill_time(0) is None
        assert [k.machine for k in plan.kills] == [1, 3]  # time order

    def test_duplicate_kill_rejected(self):
        plan = FaultPlan().add_kill(0, 1.0)
        with pytest.raises(FaultInjectionError):
            plan.add_kill(0, 2.0)

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan().add_kill(0, -1.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan().add_transient(0, 1.0, downtime=0.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan().add_slowdown(0, 1.0, duration=5.0, factor=1.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan().add_slowdown(-1, 1.0, duration=5.0, factor=2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        adds = [
            lambda: FaultPlan().add_kill(0, bad),
            lambda: FaultPlan().add_transient(0, bad, downtime=1.0),
            lambda: FaultPlan().add_transient(0, 1.0, downtime=bad),
            lambda: FaultPlan().add_slowdown(0, bad, duration=1.0,
                                             factor=2.0),
            lambda: FaultPlan().add_slowdown(0, 1.0, duration=bad,
                                             factor=2.0),
            lambda: FaultPlan().add_slowdown(0, 1.0, duration=1.0,
                                             factor=bad),
        ]
        for add in adds:
            with pytest.raises(FaultInjectionError):
                add()

    def test_overlapping_windows_rejected(self):
        plan = FaultPlan().add_transient(0, 1.0, downtime=2.0)
        with pytest.raises(FaultInjectionError):
            plan.add_transient(0, 2.0, downtime=1.0)
        plan.add_transient(0, 3.0, downtime=1.0)  # adjacent is fine
        plan.add_transient(1, 2.0, downtime=1.0)  # other machine is fine
        slow = FaultPlan().add_slowdown(0, 0.0, duration=10.0, factor=2.0)
        with pytest.raises(FaultInjectionError):
            slow.add_slowdown(0, 5.0, duration=1.0, factor=3.0)

    def test_is_down_and_is_dead(self):
        plan = (FaultPlan().add_kill(0, 5.0)
                .add_transient(1, 2.0, downtime=3.0))
        assert not plan.is_dead(0, 4.9) and plan.is_dead(0, 5.0)
        assert not plan.is_down(1, 1.9)
        assert plan.is_down(1, 2.0) and plan.is_down(1, 4.9)
        assert not plan.is_down(1, 5.0)  # rejoined
        assert plan.is_down(0, 5.0)  # dead implies down

    def test_next_outage(self):
        plan = (FaultPlan().add_transient(0, 2.0, downtime=1.0)
                .add_kill(0, 10.0))
        assert plan.next_outage(0, 0.0) == Outage(2.0, 3.0, False)
        assert plan.next_outage(0, 2.5) == Outage(2.0, 3.0, False)
        # the transient is over: the kill is next
        out = plan.next_outage(0, 3.0)
        assert out.permanent and out.start == 10.0 and out.end == np.inf
        assert plan.next_outage(1, 0.0) is None

    def test_advance_identity_without_slowdowns(self):
        plan = FaultPlan()
        assert plan.advance(0, 3.0, 4.0) == 7.0
        assert plan.advance(0, 3.0, 0.0) == 3.0

    def test_advance_stretches_inside_window(self):
        plan = FaultPlan().add_slowdown(0, 10.0, duration=100.0, factor=4.0)
        # entirely before the window
        assert plan.advance(0, 0.0, 5.0) == pytest.approx(5.0)
        # entirely inside: 4x wall time
        assert plan.advance(0, 10.0, 5.0) == pytest.approx(30.0)
        # spans the boundary: 8 nominal = 8 wall + 2 more at 4x
        assert plan.advance(0, 2.0, 10.0) == pytest.approx(18.0)
        # other machines unaffected
        assert plan.advance(1, 10.0, 5.0) == pytest.approx(15.0)

    def test_advance_past_window_end(self):
        plan = FaultPlan().add_slowdown(0, 0.0, duration=4.0, factor=2.0)
        # window capacity is 2 nominal seconds; the remaining 3 run at
        # full rate after it: 4 + 3 = 7
        assert plan.advance(0, 0.0, 5.0) == pytest.approx(7.0)

    def test_empty_and_machines(self):
        assert FaultPlan().empty
        plan = (FaultPlan().add_kill(2, 1.0)
                .add_slowdown(5, 0.0, duration=1.0, factor=2.0))
        assert not plan.empty
        assert plan.machines() == {2, 5}


class TestPartitionStore:
    def test_handle_failure_idempotent(self):
        store = PartitionStore([0, 1], num_machines=3, replication=2,
                               seed=0)
        moved = store.handle_failure(0)
        replicas_after = [store.replicas(p) for p in range(2)]
        assert store.handle_failure(0) == []  # second call is a no-op
        assert [store.replicas(p) for p in range(2)] == replicas_after
        assert 0 in store._failed
        for p in moved:
            assert store.primary(p) != 0

    def test_last_replica_raises_data_loss(self):
        store = PartitionStore([0], num_machines=2, replication=1, seed=0)
        with pytest.raises(DataLossError):
            store.handle_failure(0)

    def test_re_replicate_restores_counts(self):
        store = PartitionStore([0, 0, 1], num_machines=4, replication=3,
                               seed=0)
        store.handle_failure(0)
        assert store.under_replicated()
        copies = store.re_replicate(alive=[1, 2, 3])
        assert copies  # at least one partition needed repair
        assert store.under_replicated() == []
        for p, src, dst in copies:
            assert src in store.replicas(p)
            assert dst in store.replicas(p)
            assert dst != 0 and src != 0

    def test_re_replicate_caps_at_survivor_count(self):
        store = PartitionStore([0], num_machines=3, replication=3, seed=0)
        store.handle_failure(0)
        store.re_replicate(alive=[1, 2])
        # only two machines left: two replicas is the best we can do
        assert sorted(store.replicas(0)) == [1, 2]

    def test_partition_nbytes(self):
        store = PartitionStore([0, 1], num_machines=2, replication=1,
                               seed=0, partition_bytes=[100, 250])
        assert store.partition_nbytes(0) == 100
        assert store.partition_nbytes(1) == 250
        plain = PartitionStore([0], num_machines=2, replication=1, seed=0)
        assert plain.partition_nbytes(0) == 0


class TestSchedulerRecovery:
    def test_kill_at_time_zero(self):
        """A machine dead before the stage starts never runs anything."""
        cluster = make_cluster(3)
        store = PartitionStore([0, 0], num_machines=3, replication=2,
                               seed=0)
        plan = FaultPlan().add_kill(0, 0.0)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.5)
        sched.run_stage([
            Task("a", machine=0, partition=0, cpu_ops=100),
            Task("b", machine=0, partition=1, cpu_ops=100),
        ])
        assert not cluster.machine(0).alive
        assert cluster.machine(0).busy_time == 0.0
        winners = [e for e in sched.events.task_spans() if e.succeeded]
        assert len(winners) == 2
        assert all(e.machine != 0 for e in winners)
        assert all(e.start >= 0.5 for e in winners)  # heartbeat delay
        assert sched.events.metrics.get("scheduler.retries") == 2

    def test_failure_of_reassigned_machine(self):
        """The retry's machine dies too; the task lands on a third one."""
        cluster = make_cluster(4)
        store = PartitionStore([0], num_machines=4, replication=3, seed=0)
        first_backup = store.replicas(0)[1]
        plan = (FaultPlan().add_kill(0, 0.5)
                .add_kill(first_backup, 2.0))
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        sched.run_stage([
            Task("t", machine=0, partition=0, cpu_ops=300)
        ])
        winners = [e for e in sched.events.task_spans() if e.succeeded]
        assert len(winners) == 1
        assert winners[0].machine not in {0, first_backup}
        assert winners[0].task.attempt == 2  # two re-dispatches
        assert sched.events.metrics.get("scheduler.retries") == 2
        assert not cluster.machine(0).alive
        assert not cluster.machine(first_backup).alive

    def test_retry_budget_exhausted(self):
        cluster = make_cluster(4)
        store = PartitionStore([0], num_machines=4, replication=3, seed=0)
        first_backup = store.replicas(0)[1]
        plan = (FaultPlan().add_kill(0, 0.5)
                .add_kill(first_backup, 2.0))
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        with pytest.raises(SchedulingError):
            sched.run_stage([Task("t", machine=0, partition=0,
                                  cpu_ops=300, attempt=MAX_RETRIES - 1)])

    def test_transient_recovery_mid_stage(self):
        """In-flight task fails over; the queue resumes after recovery."""
        cluster = make_cluster(2)
        store = PartitionStore([0, 0], num_machines=2, replication=2,
                               seed=0)
        plan = FaultPlan().add_transient(0, 1.0, downtime=2.0)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.5)
        sched.run_stage([
            Task("a", machine=0, partition=0, cpu_ops=300),
            Task("b", machine=0, partition=1, cpu_ops=100),
        ])
        # the in-flight task a failed over to machine 1 ...
        assert sched.events.metrics.get("scheduler.retries") == 1
        retry = next(e for e in sched.events.task_spans()
                     if e.succeeded and e.task.name == "a#retry")
        assert retry.machine == 1
        # ... while queued task b waited out the outage on machine 0
        b = next(e for e in sched.events.task_spans()
                 if e.succeeded and e.task.name == "b")
        assert b.machine == 0 and b.start >= 3.0
        assert cluster.machine(0).alive
        assert cluster.machine(0).down_seconds == pytest.approx(2.0)
        assert cluster.machine(0).recoveries == 1
        # a transient outage never touches the replica metadata
        assert store._failed == set()
        assert store.replicas(0) == [0, 1]
        kinds = {e.kind for e in sched.events.instants}
        assert {"machine-down", "machine-recovered",
                "detect", "redispatch"} <= kinds

    def test_transient_at_dispatch_waits(self):
        """A machine down at dispatch time just delays its queue."""
        cluster = make_cluster(2)
        plan = FaultPlan().add_transient(0, 0.0, downtime=2.0)
        sched = StageScheduler(cluster, plan, heartbeat=0.5)
        result = sched.run_stage([Task("t", machine=0, cpu_ops=100)])
        assert sched.events.metrics.get("scheduler.retries") == 0
        assert sched.events.task_spans()[0].start == pytest.approx(2.0)
        assert result.duration == pytest.approx(3.0)

    def test_double_failure_with_triple_replication(self):
        cluster = make_cluster(5)
        store = PartitionStore([0, 1, 2], num_machines=5, replication=3,
                               seed=0, partition_bytes=[100, 100, 100])
        second = store.replicas(0)[1]
        plan = FaultPlan().add_kill(0, 0.3).add_kill(second, 1.0)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        tasks = [Task(f"t{p}", machine=store.primary(p), partition=p,
                      cpu_ops=300) for p in range(3)]
        sched.run_stage(tasks)
        done = {e.task.partition for e in sched.events.task_spans()
                if e.succeeded}
        assert done == {0, 1, 2}
        assert sched.events.metrics.get("scheduler.re_replication_bytes") > 0
        assert cluster.network.traffic.background_bytes > 0
        # repair restored partition 0 despite losing two of three holders
        assert len(store.replicas(0)) >= 2
        assert all(m not in {0, second} for m in store.replicas(0))

    def test_speculative_backup_wins(self):
        cluster = make_cluster(4)
        plan = FaultPlan().add_slowdown(0, 0.0, duration=100.0,
                                        factor=10.0)
        sched = StageScheduler(cluster, plan, speculation=True)
        tasks = [Task(f"t{m}", machine=m, cpu_ops=100) for m in range(4)]
        result = sched.run_stage(tasks)
        # straggler detected at 2x median (2s); backup runs 2s..3s and
        # wins against the original's 10s
        assert result.duration == pytest.approx(3.0)
        spec = next(e for e in sched.events.task_spans()
                    if e.task.name.endswith("#spec"))
        assert spec.succeeded and spec.machine != 0
        cancelled = next(e for e in sched.events.task_spans()
                         if e.task.name == "t0")
        assert not cancelled.succeeded
        assert cancelled.end == pytest.approx(3.0)
        # the cancelled attempt is only charged up to the cancel point
        assert cluster.machine(0).busy_time == pytest.approx(3.0)
        kinds = [e.kind for e in sched.events.instants]
        assert kinds.count("spec-launch") == 1
        assert kinds.count("spec-win") == 1
        assert kinds.count("spec-cancel") == 1

    def test_speculative_backup_loses(self):
        cluster = make_cluster(4)
        plan = FaultPlan().add_slowdown(0, 0.0, duration=100.0,
                                        factor=2.5)
        sched = StageScheduler(cluster, plan, speculation=True)
        tasks = [Task(f"t{m}", machine=m, cpu_ops=100) for m in range(4)]
        result = sched.run_stage(tasks)
        # original takes 2.5s; backup launches at 2.0s and would finish
        # at 3.0s, so the original wins and the backup is cancelled
        assert result.duration == pytest.approx(2.5)
        original = next(e for e in sched.events.task_spans()
                        if e.task.name == "t0")
        assert original.succeeded
        backup = next(e for e in sched.events.task_spans()
                      if e.task.name.endswith("#spec"))
        assert not backup.succeeded
        kinds = [e.kind for e in sched.events.instants]
        assert kinds.count("spec-launch") == 1
        assert kinds.count("spec-win") == 0
        assert kinds.count("spec-cancel") == 1
        # the losing backup moved no bytes
        assert cluster.network.traffic.total_bytes == 0

    def test_speculation_noop_without_stragglers(self):
        cluster = make_cluster(4)
        sched = StageScheduler(cluster, speculation=True)
        tasks = [Task(f"t{m}", machine=m, cpu_ops=100) for m in range(4)]
        result = sched.run_stage(tasks)
        assert result.duration == pytest.approx(1.0)
        assert sched.events.instants == []

    def test_pipelined_matches_serial_recovery(self):
        """Pipelined and serial drains recover the same task set."""
        def run(pipelined):
            cluster = make_cluster(3)
            store = PartitionStore([0, 0], num_machines=3, replication=2,
                                   seed=0)
            plan = FaultPlan().add_kill(0, 1.0)
            sched = StageScheduler(cluster, plan, store, heartbeat=0.5,
                                   pipelined=pipelined)
            sched.run_stage([
                Task("a", machine=0, partition=0, cpu_ops=100,
                     disk_read_bytes=50),
                Task("b", machine=0, partition=1, cpu_ops=100,
                     disk_read_bytes=50),
            ])
            return {(e.task.name.split("#")[0], e.machine)
                    for e in sched.events.task_spans() if e.succeeded}
        assert run(False) == run(True)


class TestRecoveryTrace:
    def test_event_counts_and_timeline(self):
        cluster = make_cluster(3)
        store = PartitionStore([0], num_machines=3, replication=2, seed=0,
                               partition_bytes=[100])
        plan = FaultPlan().add_kill(0, 1.0)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.5)
        sched.run_stage([Task("t", machine=0, partition=0, cpu_ops=300)])
        counts = recovery_event_counts(sched.events.instants)
        assert counts["machine-down"] == 1
        assert counts["detect"] == 1
        assert counts["redispatch"] == 1
        assert counts["re-replicate"] >= 1


class TestEndToEndJobs:
    def test_double_failure_job_completes(self, tiny_graph):
        baseline = Surfer(tiny_graph, make_test_cluster(6), num_parts=8,
                          seed=3)
        clean = baseline.run_propagation(NetworkRankingPropagation(),
                                         iterations=2)
        surfer = Surfer(tiny_graph, make_test_cluster(6), num_parts=8,
                        seed=3)
        victims = surfer.store.replicas(0)[:2]
        resp = clean.response_time
        plan = (FaultPlan().add_kill(victims[0], 0.3 * resp)
                .add_kill(victims[1], 0.6 * resp))
        result = surfer.run_propagation(NetworkRankingPropagation(),
                                        iterations=2, fault_plan=plan)
        assert not result.failed
        assert np.allclose(result.result, clean.result)
        assert result.metrics.re_replication_bytes > 0
        counts = recovery_event_counts(result.events.instants)
        assert counts["machine-down"] == 2
        assert counts.get("re-replicate", 0) >= 1

    def test_data_loss_returns_clean_failed_job(self, tiny_graph):
        surfer = Surfer(tiny_graph, make_test_cluster(4), num_parts=8,
                        seed=3, replication=1)
        plan = FaultPlan().add_kill(surfer.store.primary(0), 1.0)
        result = surfer.run_propagation(NetworkRankingPropagation(),
                                        iterations=2, fault_plan=plan)
        assert result.failed
        assert result.result is None
        assert result.error and "replica" in result.error
        kinds = {e.kind for e in result.events.instants}
        assert "data-loss" in kinds
