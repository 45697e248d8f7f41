"""Integration: the job monitor over real engine runs."""

import pytest

from repro.apps import NetworkRankingPropagation
from repro.cluster.cluster import Cluster
from repro.cluster.spec import MachineSpec
from repro.cluster.topology import t1
from repro.core.surfer import Surfer
from repro.runtime.monitor import JobMonitor
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task
from tests.conftest import make_test_cluster


class TestMonitorOnRealRuns:
    @pytest.fixture()
    def job(self, small_graph):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        return surfer.run_propagation(NetworkRankingPropagation(),
                                      iterations=2)

    def test_makespan_matches_metrics(self, job):
        monitor = JobMonitor(job.events)
        assert monitor.makespan == pytest.approx(
            job.metrics.response_time
        )

    def test_busy_time_matches_metrics(self, job):
        monitor = JobMonitor(job.events)
        total_busy = sum(u.busy_seconds
                         for u in monitor.machine_utilization())
        assert total_busy == pytest.approx(
            job.metrics.total_machine_time
        )

    def test_stage_summary_matches_structure(self, job):
        summary = JobMonitor(job.events).stage_summary()
        assert set(summary) == {"transfer", "combine"}
        # 2 iterations x 8 partitions each
        assert summary["transfer"]["tasks"] == 16
        assert summary["combine"]["tasks"] == 16


class TestRunStages:
    def test_consecutive_stages_barrier(self):
        spec = MachineSpec(disk_read_bps=100.0, disk_write_bps=100.0,
                           cpu_ops_per_sec=100.0, nic_bps=100.0)
        cluster = Cluster(t1(2, link_bps=100.0), machine_spec=spec)
        sched = StageScheduler(cluster)
        results = [sched.run_stage([Task("a", machine=0, cpu_ops=100)]),
                   sched.run_stage([Task("b", machine=1, cpu_ops=100)])]
        assert len(results) == 2
        assert results[1].start == pytest.approx(results[0].end)
        assert len(sched.events.task_spans()) == 2
