"""Tests for the opt-in pipelined (flow-shop) executor."""

import numpy as np
import pytest

from repro.apps import NetworkRankingPropagation, NetworkRankingMapReduce
from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.spec import MachineSpec
from repro.cluster.topology import t1
from repro.core.surfer import Surfer
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task
from tests.conftest import make_test_cluster


def flat_cluster():
    spec = MachineSpec(disk_read_bps=100.0, disk_write_bps=100.0,
                       cpu_ops_per_sec=100.0, nic_bps=100.0)
    return Cluster(t1(2, link_bps=100.0), machine_spec=spec)


class TestPipelinedScheduler:
    def test_phases_overlap_across_tasks(self):
        """Two read+write tasks: task 2's read overlaps task 1's write."""
        cluster = flat_cluster()
        sched = StageScheduler(cluster, pipelined=True)
        tasks = [Task(f"t{i}", machine=0, disk_read_bytes=100,
                      disk_write_bytes=100) for i in range(2)]
        result = sched.run_stage(tasks)
        # serial: 4s; pipelined: read1(1) write1(1)||read2(1) write2(1) = 3s
        assert result.duration == pytest.approx(3.0)

    def test_single_task_unchanged(self):
        cluster = flat_cluster()
        serial = StageScheduler(cluster)
        t = Task("t", machine=0, disk_read_bytes=100, cpu_ops=100,
                 disk_write_bytes=100)
        a = serial.run_stage([t]).duration
        cluster.reset()
        piped = StageScheduler(cluster, pipelined=True)
        b = piped.run_stage([Task("t", machine=0, disk_read_bytes=100,
                                  cpu_ops=100,
                                  disk_write_bytes=100)]).duration
        assert a == pytest.approx(b)

    def test_busy_time_and_bytes_identical(self):
        cluster = flat_cluster()
        tasks = [Task(f"t{i}", machine=0, disk_read_bytes=50,
                      cpu_ops=30, sends=[(1, 40)],
                      disk_write_bytes=20) for i in range(3)]
        StageScheduler(cluster).run_stage(tasks)
        serial = cluster.metrics()
        cluster.reset()
        tasks = [Task(f"t{i}", machine=0, disk_read_bytes=50,
                      cpu_ops=30, sends=[(1, 40)],
                      disk_write_bytes=20) for i in range(3)]
        StageScheduler(cluster, pipelined=True).run_stage(tasks)
        piped = cluster.metrics()
        assert piped.total_machine_time == pytest.approx(
            serial.total_machine_time)
        assert piped.disk_bytes == serial.disk_bytes
        assert piped.network_bytes == serial.network_bytes
        assert piped.response_time <= serial.response_time

    def test_never_slower_than_serial(self):
        cluster = flat_cluster()
        rng = np.random.default_rng(5)
        def mk():
            return [Task(f"t{i}", machine=int(rng2 % 2),
                         disk_read_bytes=float(r), cpu_ops=float(c),
                         disk_write_bytes=float(w))
                    for i, (rng2, r, c, w) in enumerate(zip(
                        rng.integers(0, 2, 8), rng.integers(1, 100, 8),
                        rng.integers(1, 100, 8), rng.integers(1, 100, 8)))]
        rng = np.random.default_rng(5)
        a = StageScheduler(cluster).run_stage(mk()).duration
        cluster.reset()
        rng = np.random.default_rng(5)
        b = StageScheduler(cluster, pipelined=True).run_stage(mk()).duration
        assert b <= a + 1e-9

    def test_accepts_fault_plan(self):
        """Pipelined mode recovers from a kill like the serial manager."""
        from repro.cluster.storage import PartitionStore

        cluster = Cluster(t1(3, link_bps=100.0),
                          machine_spec=flat_cluster().machine_spec)
        store = PartitionStore([0], num_machines=3, replication=2, seed=0)
        plan = FaultPlan().add_kill(0, 1.0)
        sched = StageScheduler(cluster, plan, store, heartbeat=0.5,
                               pipelined=True)
        sched.run_stage([
            Task("t", machine=0, partition=0, cpu_ops=300)
        ])
        assert sched.events.metrics.get("scheduler.retries") == 1
        assert not cluster.machine(0).alive
        winner = [e for e in sched.events.task_spans() if e.succeeded]
        assert len(winner) == 1
        assert winner[0].machine in store.replicas(0)
        assert winner[0].start >= 1.0 + 0.5  # heartbeat-delayed detection


class TestPipelinedEngines:
    def test_propagation_results_identical(self, small_graph):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=7)
        serial = surfer.run_propagation(NetworkRankingPropagation(),
                                        iterations=2)
        piped = surfer.run_propagation(NetworkRankingPropagation(),
                                       iterations=2, pipelined=True)
        assert np.allclose(serial.result, piped.result)
        assert piped.response_time <= serial.response_time
        assert piped.metrics.disk_bytes == serial.metrics.disk_bytes

    def test_mapreduce_results_identical(self, small_graph):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=7)
        serial = surfer.run_mapreduce(NetworkRankingMapReduce())
        piped = surfer.run_mapreduce(NetworkRankingMapReduce(),
                                     pipelined=True)
        assert np.allclose(serial.result, piped.result)
        assert piped.response_time <= serial.response_time
