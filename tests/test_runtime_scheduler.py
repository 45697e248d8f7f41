"""Unit tests for the stage scheduler, including fault handling."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.spec import MachineSpec
from repro.cluster.storage import PartitionStore
from repro.cluster.topology import t1
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task


def make_cluster(n=2):
    spec = MachineSpec(disk_read_bps=100.0, disk_write_bps=100.0,
                       cpu_ops_per_sec=100.0, nic_bps=100.0)
    return Cluster(t1(n, link_bps=100.0), machine_spec=spec)


class TestBasicScheduling:
    def test_single_task_duration(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        result = sched.run_stage([
            Task("t", machine=0, disk_read_bytes=100, cpu_ops=100,
                 disk_write_bytes=100)
        ])
        assert result.duration == pytest.approx(3.0)
        assert cluster.machine(0).busy_time == pytest.approx(3.0)

    def test_tasks_serialize_per_machine(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        tasks = [Task(f"t{i}", machine=0, cpu_ops=100) for i in range(3)]
        result = sched.run_stage(tasks)
        assert result.duration == pytest.approx(3.0)

    def test_tasks_parallel_across_machines(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        tasks = [Task("a", machine=0, cpu_ops=100),
                 Task("b", machine=1, cpu_ops=100)]
        result = sched.run_stage(tasks)
        assert result.duration == pytest.approx(1.0)

    def test_stage_barrier(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        sched.run_stage([Task("slow", machine=0, cpu_ops=500)])
        # machine 1 idled through stage 1 but starts stage 2 at the barrier
        result = sched.run_stage([Task("next", machine=1, cpu_ops=100)])
        assert result.start == pytest.approx(5.0)
        assert result.end == pytest.approx(6.0)

    def test_network_send_charged_and_counted(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        result = sched.run_stage([
            Task("s", machine=0, sends=[(1, 200)])
        ])
        assert result.duration == pytest.approx(2.0)
        assert cluster.network.traffic.total_bytes == 200
        assert cluster.machine(0).bytes_sent == 200
        assert cluster.machine(1).bytes_received == 200

    def test_local_send_free(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        result = sched.run_stage([Task("s", machine=0, sends=[(0, 500)])])
        assert result.duration == 0.0
        assert cluster.network.traffic.total_bytes == 0

    def test_receive_charged_not_counted(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        result = sched.run_stage([
            Task("r", machine=1, receives=[(0, 300)])
        ])
        assert result.duration == pytest.approx(3.0)
        assert cluster.network.traffic.total_bytes == 0

    def test_fetch_charged_and_counted(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        result = sched.run_stage([
            Task("f", machine=1, fetches=[(0, 300)])
        ])
        assert result.duration == pytest.approx(3.0)
        assert cluster.network.traffic.total_bytes == 300

    def test_busy_time_excludes_barrier_wait(self):
        cluster = make_cluster()
        sched = StageScheduler(cluster)
        sched.run_stage([Task("slow", machine=0, cpu_ops=500),
                         Task("fast", machine=1, cpu_ops=100)])
        assert cluster.machine(1).busy_time == pytest.approx(1.0)
        assert cluster.machine(1).clock == pytest.approx(5.0)


class TestFaults:
    def test_task_reexecuted_on_replica(self):
        cluster = make_cluster(3)
        store = PartitionStore([0], num_machines=3, replication=2, seed=0)
        plan = FaultPlan().add_kill(0, 1.0)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.5)
        sched.run_stage([
            Task("t", machine=0, partition=0, cpu_ops=300)
        ])
        assert sched.events.metrics.get("scheduler.retries") == 1
        execs = sched.events.task_spans()
        assert len(execs) == 2
        assert not execs[0].succeeded
        assert execs[1].succeeded
        assert execs[1].machine != 0
        assert execs[1].machine in store.replicas(0)

    def test_failed_machine_stops_taking_tasks(self):
        cluster = make_cluster(2)
        store = PartitionStore([0, 0], num_machines=2, replication=2,
                               seed=0)
        plan = FaultPlan().add_kill(0, 0.5)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        sched.run_stage([
            Task("a", machine=0, partition=0, cpu_ops=100),
            Task("b", machine=0, partition=1, cpu_ops=100),
        ])
        assert not cluster.machine(0).alive
        survivors = {e.machine for e in sched.events.task_spans()
                     if e.succeeded}
        assert survivors == {1}

    def test_detection_waits_for_heartbeat(self):
        cluster = make_cluster(2)
        store = PartitionStore([0], num_machines=2, replication=2, seed=0)
        plan = FaultPlan().add_kill(0, 1.0)
        sched = StageScheduler(cluster, plan, store, heartbeat=5.0)
        sched.run_stage([
            Task("t", machine=0, partition=0, cpu_ops=300)
        ])
        retry = [e for e in sched.events.task_spans() if e.succeeded][0]
        assert retry.start >= 1.0 + 5.0

    def test_combine_refetches_inputs(self):
        cluster = make_cluster(4)
        store = PartitionStore([0], num_machines=4, replication=2, seed=0)
        replica = store.replicas(0)[1]  # where the retry will run
        source = next(m for m in range(1, 4) if m != replica)
        plan = FaultPlan().add_kill(0, 0.5)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        sched.run_stage([
            Task("c", machine=0, partition=0, kind="combine", cpu_ops=100,
                 input_transfers=[(source, 400)])
        ])
        # the re-executed combine pulled its inputs again over the network
        assert cluster.network.traffic.total_bytes >= 400

    def test_no_refetch_when_retry_lands_on_source(self):
        cluster = make_cluster(3)
        store = PartitionStore([0], num_machines=3, replication=2, seed=0)
        replica = store.replicas(0)[1]
        plan = FaultPlan().add_kill(0, 0.5)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        sched.run_stage([
            Task("c", machine=0, partition=0, kind="combine", cpu_ops=100,
                 input_transfers=[(replica, 400)])
        ])
        # input already lives where the retry runs: nothing crosses the wire
        assert cluster.network.traffic.total_bytes == 0

    def test_mid_flight_failure_wastes_partial_time(self):
        cluster = make_cluster(2)
        store = PartitionStore([0], num_machines=2, replication=2, seed=0)
        plan = FaultPlan().add_kill(0, 1.5)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        sched.run_stage([
            Task("t", machine=0, partition=0, cpu_ops=300)
        ])
        failed = sched.events.task_spans()[0]
        assert not failed.succeeded
        assert failed.end == pytest.approx(1.5)
        assert cluster.machine(0).busy_time == pytest.approx(1.5)

    def test_all_dead_raises(self):
        from repro.errors import SchedulingError
        cluster = make_cluster(1)
        store = None
        plan = FaultPlan().add_kill(0, 0.1)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.1)
        with pytest.raises(SchedulingError):
            sched.run_stage([Task("t", machine=0, cpu_ops=300)])
