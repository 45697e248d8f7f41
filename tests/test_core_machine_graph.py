"""Unit tests for the machine graph and its bandwidth-aware bisection."""

import numpy as np
import pytest

from repro.errors import PartitioningError
from repro.cluster.topology import t1, t2, t3
from repro.core.machine_graph import MachineGraph, bisect_machines


class TestMachineGraph:
    def test_complete_graph_weights(self):
        mg = MachineGraph(t1(4, link_bps=10.0))
        assert mg.num_machines == 4
        assert mg.weights[0, 1] == 10.0
        assert mg.weights[2, 2] == 0.0

    def test_subset(self):
        sub = MachineGraph(t2(2, 1, 8, link_bps=100.0), [0, 1, 4])
        assert sub.machines == [0, 1, 4]
        assert sub.weights[0, 2] == pytest.approx(100.0 / 32)

    def test_rejects_duplicates(self):
        with pytest.raises(PartitioningError):
            MachineGraph(t1(4), [0, 0, 1])

    def test_cut_weight(self):
        mg = MachineGraph(t1(4, link_bps=1.0))
        side = np.array([0, 0, 1, 1])
        assert mg.cut_weight(side) == 4.0  # 2x2 cross pairs

    def test_max_aggregate_bandwidth_machine(self):
        topo = t3(8, link_bps=100.0, seed=0)
        mg = MachineGraph(topo)
        best = mg.max_aggregate_bandwidth_machine()
        assert not topo.is_slow[best]


class TestBisection:
    def test_finds_pod_boundary(self):
        """The minimum-bandwidth cut of a 2-pod tree is the pod split."""
        topo = t2(2, 1, 16)
        mg = MachineGraph(topo)
        left, right = bisect_machines(mg, seed=0)
        pods_left = {topo.pod_of(m) for m in left}
        pods_right = {topo.pod_of(m) for m in right}
        assert pods_left != pods_right
        assert len(pods_left) == 1 and len(pods_right) == 1

    def test_equal_halves(self):
        mg = MachineGraph(t1(10))
        left, right = bisect_machines(mg, seed=1)
        assert len(left) == len(right) == 5

    def test_odd_count(self):
        mg = MachineGraph(t1(5))
        left, right = bisect_machines(mg, seed=0)
        assert {len(left), len(right)} == {2, 3}

    def test_t3_groups_slow_together(self):
        """Minimizing crossing bandwidth separates slow from fast."""
        topo = t3(16, link_bps=100.0, seed=2)
        mg = MachineGraph(topo)
        left, right = bisect_machines(mg, seed=0, num_restarts=16)
        slow_left = sum(topo.is_slow[m] for m in left)
        slow_right = sum(topo.is_slow[m] for m in right)
        # all slow machines end up on one side
        assert min(slow_left, slow_right) == 0

    def test_rejects_single_machine(self):
        with pytest.raises(PartitioningError):
            bisect_machines(MachineGraph(t1(1)))

    def test_deterministic(self):
        mg = MachineGraph(t2(4, 1, 16))
        assert bisect_machines(mg, seed=3) == bisect_machines(mg, seed=3)
