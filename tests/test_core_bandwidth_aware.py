"""Unit tests for bandwidth-aware partitioning (Algorithm 4) and the
partition sketch."""

import numpy as np
import pytest

from repro.cluster.topology import t1, t2
from repro.core.bandwidth_aware import (
    bandwidth_aware_partition,
    build_machine_tree,
    oblivious_partition,
    random_machine_tree,
)
from tests.partition_sketch import PartitionSketch
from repro.errors import PartitioningError


class TestMachineTree:
    def test_covers_all_levels(self):
        tree = build_machine_tree(t1(8), num_levels=4, seed=0)
        for level in range(5):
            for prefix in range(1 << level):
                assert (level, prefix) in tree

    def test_root_is_whole_cluster(self):
        tree = build_machine_tree(t1(8), num_levels=3, seed=0)
        assert sorted(tree[(0, 0)]) == list(range(8))

    def test_leaves_are_single_machines(self):
        tree = build_machine_tree(t1(8), num_levels=4, seed=0)
        for prefix in range(16):
            assert len(tree[(4, prefix)]) == 1

    def test_children_partition_parent(self):
        tree = build_machine_tree(t2(2, 1, 8), num_levels=3, seed=0)
        for level in range(3):
            for prefix in range(1 << level):
                parent = set(tree[(level, prefix)])
                left = set(tree[(level + 1, 2 * prefix)])
                right = set(tree[(level + 1, 2 * prefix + 1)])
                if len(parent) > 1:
                    assert left | right == parent
                    assert not left & right

    def test_pods_separate_at_top_level(self):
        topo = t2(2, 1, 8)
        tree = build_machine_tree(topo, num_levels=3, seed=0)
        pods_left = {topo.pod_of(m) for m in tree[(1, 0)]}
        pods_right = {topo.pod_of(m) for m in tree[(1, 1)]}
        assert pods_left.isdisjoint(pods_right)

    def test_random_tree_valid_structure(self):
        tree = random_machine_tree(t1(8), num_levels=4, seed=0)
        assert sorted(tree[(0, 0)]) == list(range(8))
        for prefix in range(16):
            assert len(tree[(4, prefix)]) == 1


class TestPlans:
    def test_bandwidth_aware_plan_complete(self, small_graph):
        plan = bandwidth_aware_partition(small_graph, t1(8), 16, seed=0)
        assert plan.num_parts == 16
        assert plan.parts.shape == (small_graph.num_vertices,)
        assert plan.placement.shape == (16,)
        assert plan.method == "bandwidth-aware"
        assert set(np.unique(plan.parts)) <= set(range(16))

    def test_same_cut_quality_both_methods(self, small_graph):
        """Oblivious baseline uses the same bisections — same cut."""
        ba = bandwidth_aware_partition(small_graph, t1(8), 16, seed=0)
        ob = oblivious_partition(small_graph, t1(8), 16, seed=0)
        assert np.array_equal(ba.parts, ob.parts)

    def test_oblivious_scatters_siblings(self, small_graph):
        """Sibling partitions mostly share a machine under the sketch
        placement and mostly do not under the oblivious one."""
        ba = bandwidth_aware_partition(small_graph, t1(8), 16, seed=0)
        ob = oblivious_partition(small_graph, t1(8), 16, seed=0)
        ba_same = sum(ba.placement[2 * i] == ba.placement[2 * i + 1]
                      for i in range(8))
        ob_same = sum(ob.placement[2 * i] == ob.placement[2 * i + 1]
                      for i in range(8))
        assert ba_same > ob_same

    def test_sibling_partitions_same_pod(self, small_graph):
        topo = t2(2, 1, 8)
        plan = bandwidth_aware_partition(small_graph, topo, 16, seed=0)
        for i in range(8):
            assert (topo.pod_of(int(plan.placement[2 * i]))
                    == topo.pod_of(int(plan.placement[2 * i + 1])))

    def test_placement_balanced(self, small_graph):
        plan = oblivious_partition(small_graph, t1(8), 16, seed=0)
        counts = np.bincount(plan.placement, minlength=8)
        assert counts.max() - counts.min() <= 1


class TestSketch:
    def test_monotonicity_always_holds(self, small_graph):
        plan = bandwidth_aware_partition(small_graph, t1(8), 16, seed=0)
        sketch = PartitionSketch(small_graph, plan.parts, 16)
        assert sketch.check_monotonicity()

    def test_cross_edges_symmetric(self, small_graph):
        plan = bandwidth_aware_partition(small_graph, t1(8), 8, seed=0)
        sketch = PartitionSketch(small_graph, plan.parts, 8)
        a, b = (2, 0), (2, 3)
        assert sketch.cross_edges(a, b) == sketch.cross_edges(b, a)

    def test_total_cut_level_zero_is_zero(self, small_graph):
        plan = bandwidth_aware_partition(small_graph, t1(8), 8, seed=0)
        sketch = PartitionSketch(small_graph, plan.parts, 8)
        assert sketch.total_cut_at_level(0) == 0

    def test_total_cut_at_leaf_level_counts_all_cross(self, small_graph):
        from repro.partitioning.metrics import edge_cut
        plan = bandwidth_aware_partition(small_graph, t1(8), 8, seed=0)
        sketch = PartitionSketch(small_graph, plan.parts, 8)
        assert sketch.total_cut_at_level(3) == edge_cut(
            small_graph, plan.parts
        )

    def test_leaves_of(self, small_graph):
        plan = bandwidth_aware_partition(small_graph, t1(8), 8, seed=0)
        sketch = PartitionSketch(small_graph, plan.parts, 8)
        assert list(sketch.leaves_of(0, 0)) == list(range(8))
        assert list(sketch.leaves_of(1, 1)) == [4, 5, 6, 7]
        assert list(sketch.leaves_of(3, 5)) == [5]

    def test_overlapping_nodes_rejected(self, small_graph):
        plan = bandwidth_aware_partition(small_graph, t1(8), 8, seed=0)
        sketch = PartitionSketch(small_graph, plan.parts, 8)
        with pytest.raises(PartitioningError):
            sketch.cross_edges((1, 0), (2, 1))

    def test_proximity_mostly_holds(self, small_graph):
        """Real sketches may violate proximity slightly; bound the rate."""
        plan = bandwidth_aware_partition(small_graph, t1(8), 16, seed=0)
        sketch = PartitionSketch(small_graph, plan.parts, 16)
        violations = sketch.proximity_violations()
        # 2 pairings per grandparent node, levels 2..4
        total_checks = sum(2 * (1 << (level - 2))
                           for level in range(2, 5))
        assert len(violations) <= total_checks // 2
