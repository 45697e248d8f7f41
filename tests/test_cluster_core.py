"""Unit tests for machine specs, cluster facade, storage and faults."""

import pytest

from repro.errors import FaultInjectionError, PlacementError, TopologyError
from repro.cluster.cluster import Cluster, partitions_for_memory
from repro.cluster.faults import FaultPlan
from repro.cluster.spec import MachineSpec
from repro.cluster.storage import PartitionStore
from repro.cluster.topology import t1


class TestMachineSpec:
    def test_cost_functions(self):
        spec = MachineSpec(disk_read_bps=100.0, disk_write_bps=50.0,
                           cpu_ops_per_sec=10.0)
        assert spec.disk_read_time(200) == 2.0
        assert spec.disk_write_time(100) == 2.0
        assert spec.cpu_time(5) == 0.5

    def test_scaled_preserves_ratios(self):
        spec = MachineSpec()
        scaled = spec.scaled(1000.0)
        assert scaled.disk_read_bps == spec.disk_read_bps / 1000
        assert (scaled.nic_bps / scaled.disk_read_bps ==
                pytest.approx(spec.nic_bps / spec.disk_read_bps))
        # memory scales with the rates so "fits in memory" is preserved
        assert scaled.memory_bytes == spec.memory_bytes / 1000
        assert scaled.random_io_penalty == spec.random_io_penalty

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(TopologyError):
            MachineSpec(disk_read_bps=0)
        with pytest.raises(TopologyError):
            MachineSpec().scaled(0)


class TestPartitionsForMemory:
    def test_paper_rule(self):
        # 128 GB graph on 2 GB budget -> 64 partitions
        assert partitions_for_memory(128, 2) == 64

    def test_rounds_up_to_power_of_two(self):
        assert partitions_for_memory(100, 30) == 4

    def test_fits_in_memory(self):
        assert partitions_for_memory(10, 100) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(TopologyError):
            partitions_for_memory(0, 1)


class TestCluster:
    def test_default_cluster(self):
        c = Cluster(num_machines=4)
        assert c.num_machines == 4
        assert c.alive_machines() == [0, 1, 2, 3]

    def test_machine_count_conflict(self):
        with pytest.raises(TopologyError):
            Cluster(t1(8), num_machines=4)

    def test_metrics_aggregate(self):
        c = Cluster(num_machines=2)
        c.machine(0).clock = 5.0
        c.machine(0).busy_time = 3.0
        c.machine(1).busy_time = 4.0
        c.machine(1).disk_read_bytes = 10
        m = c.metrics()
        assert m.response_time == 5.0
        assert m.total_machine_time == 7.0
        assert m.disk_bytes == 10

    def test_reset(self):
        c = Cluster(num_machines=2)
        c.machine(0).clock = 5.0
        c.network.transfer(0, 1, 100)
        c.reset()
        assert c.metrics().response_time == 0.0
        assert c.metrics().network_bytes == 0

    def test_unknown_machine(self):
        with pytest.raises(TopologyError):
            Cluster(num_machines=2).machine(5)


class TestPartitionStore:
    def test_replica_count_and_primary(self):
        store = PartitionStore([0, 1, 2, 3], num_machines=8,
                               replication=3, seed=0)
        for p in range(4):
            reps = store.replicas(p)
            assert len(reps) == 3
            assert len(set(reps)) == 3
            assert reps[0] == store.primary(p) == p

    def test_failure_promotes_replica(self):
        store = PartitionStore([0, 1], num_machines=4, replication=3,
                               seed=1)
        moved = store.handle_failure(0)
        assert moved == [0]
        assert store.primary(0) != 0
        assert 0 not in store.replicas(0)
        assert 0 not in store.replicas(1)

    def test_losing_last_replica_raises(self):
        store = PartitionStore([2], num_machines=4, replication=1)
        with pytest.raises(PlacementError):
            store.handle_failure(2)

    def test_rejects_over_replication(self):
        with pytest.raises(PlacementError):
            PartitionStore([0], num_machines=2, replication=3)

    def test_rejects_bad_placement(self):
        with pytest.raises(PlacementError):
            PartitionStore([5], num_machines=2, replication=1)


class TestFaultPlan:
    def test_kill_time(self):
        plan = FaultPlan().add_kill(3, 100.0)
        assert plan.kill_time(3) == 100.0
        assert plan.kill_time(4) is None

    def test_is_dead(self):
        plan = FaultPlan().add_kill(0, 10.0)
        assert not plan.is_dead(0, 5.0)
        assert plan.is_dead(0, 10.0)

    def test_ordering(self):
        plan = FaultPlan().add_kill(1, 50.0).add_kill(0, 20.0)
        assert [k.machine for k in plan.kills] == [0, 1]

    def test_duplicate_kill_rejected(self):
        plan = FaultPlan().add_kill(0, 1.0)
        with pytest.raises(FaultInjectionError):
            plan.add_kill(0, 2.0)

    def test_rejects_negative_time(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan().add_kill(0, -1.0)
