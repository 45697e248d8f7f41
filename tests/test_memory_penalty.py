"""Tests for the principle-P2 random-I/O memory penalty."""

import numpy as np
import pytest

from repro.apps import NetworkRankingPropagation
from repro.cluster.cluster import Cluster
from repro.cluster.spec import MachineSpec
from repro.cluster.topology import t1
from repro.core.surfer import Surfer
from repro.errors import TopologyError
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task


def cluster_with_memory(memory_bytes: float, n: int = 4) -> Cluster:
    spec = MachineSpec(memory_bytes=memory_bytes, disk_read_bps=100.0,
                       disk_write_bps=100.0, cpu_ops_per_sec=1e9,
                       nic_bps=1e9, random_io_penalty=4.0)
    return Cluster(t1(n, link_bps=1e9), machine_spec=spec)


class TestSchedulerPenalty:
    def test_penalty_multiplies_disk_time(self):
        cluster = cluster_with_memory(1e9, 1)
        sched = StageScheduler(cluster)
        plain = sched.run_stage([Task("a", machine=0,
                                      disk_read_bytes=100)])
        cluster.reset()
        penalized = sched.run_stage([Task("b", machine=0,
                                          disk_read_bytes=100,
                                          disk_penalty=4.0)])
        assert penalized.duration == pytest.approx(4 * plain.duration)

    def test_penalty_does_not_inflate_byte_counters(self):
        cluster = cluster_with_memory(1e9, 1)
        sched = StageScheduler(cluster)
        sched.run_stage([Task("b", machine=0, disk_read_bytes=100,
                              disk_penalty=4.0)])
        assert cluster.metrics().disk_read_bytes == 100

    def test_rejects_sub_one_penalty_spec(self):
        with pytest.raises(TopologyError):
            MachineSpec(random_io_penalty=0.5)


class TestEnginePenalty:
    def test_small_memory_slows_runs_only_in_time(self, tiny_graph):
        results = {}
        for memory in (1e12, 10.0):  # plentiful vs. absurdly tight
            surfer = Surfer(tiny_graph, cluster_with_memory(memory),
                            num_parts=8, seed=4)
            job = surfer.run_propagation(NetworkRankingPropagation())
            results[memory] = job
        fits, thrashes = results[1e12], results[10.0]
        assert thrashes.metrics.response_time > \
            1.5 * fits.metrics.response_time
        # byte accounting identical: only the *rate* degraded
        assert thrashes.metrics.disk_bytes == fits.metrics.disk_bytes
        assert np.allclose(thrashes.result, fits.result)

    def test_penalty_flag_set_on_tasks(self, tiny_graph):
        surfer = Surfer(tiny_graph, cluster_with_memory(10.0),
                        num_parts=8, seed=4)
        job = surfer.run_propagation(NetworkRankingPropagation())
        assert all(e.task.disk_penalty > 1.0
                   for e in job.events.task_spans()
                   if e.task.kind == "transfer")

    def test_no_penalty_when_fits(self, tiny_graph):
        surfer = Surfer(tiny_graph, cluster_with_memory(1e12),
                        num_parts=8, seed=4)
        job = surfer.run_propagation(NetworkRankingPropagation())
        assert all(e.task.disk_penalty == 1.0
                   for e in job.events.task_spans())

    def test_mapreduce_penalty(self, tiny_graph):
        from repro.apps import NetworkRankingMapReduce
        tight = Surfer(tiny_graph, cluster_with_memory(10.0),
                       num_parts=8, seed=4)
        roomy = Surfer(tiny_graph, cluster_with_memory(1e12),
                       num_parts=8, seed=4)
        slow = tight.run_mapreduce(NetworkRankingMapReduce())
        fast = roomy.run_mapreduce(NetworkRankingMapReduce())
        assert slow.metrics.response_time > fast.metrics.response_time
        assert np.allclose(slow.result, fast.result)
