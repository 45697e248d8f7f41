"""Unit tests for the T1/T2/T3 topologies."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.cluster.network import NetworkModel
from repro.cluster.topology import (
    FlatTopology,
    HeterogeneousTopology,
    TreeTopology,
    t1,
    t2,
    t3,
)


class TestFlat:
    def test_uniform_bandwidth(self):
        topo = t1(8, link_bps=100.0)
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert topo.bandwidth(i, j) == 100.0

    def test_self_bandwidth_infinite(self):
        assert t1(4).bandwidth(2, 2) == float("inf")

    def test_single_pod(self):
        topo = t1(4)
        assert topo.num_pods == 1
        assert topo.pod_of(3) == 0

    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            FlatTopology(0)


class TestTree:
    def test_t2_2_1_factors(self):
        topo = t2(2, 1, 32, link_bps=320.0)
        assert topo.bandwidth(0, 1) == 320.0          # intra-pod
        assert topo.bandwidth(0, 16) == 10.0          # cross-pod: /32

    def test_t2_4_2_levels(self):
        topo = t2(4, 2, 32, link_bps=320.0)
        assert topo.pod_of(0) == 0
        assert topo.pod_of(31) == 3
        # pods 0 and 1 meet at the mid switch: /16
        assert topo.bandwidth(0, 8) == 20.0
        # pods 0 and 2 meet at the top switch: /32
        assert topo.bandwidth(0, 16) == 10.0

    def test_common_switch_level(self):
        topo = t2(4, 2, 32)
        assert topo.common_switch_level(0, 1) == 0
        assert topo.common_switch_level(0, 8) == 1
        assert topo.common_switch_level(0, 24) == 2

    def test_custom_delay_factors(self):
        topo = t2(2, 1, 8, link_bps=128.0, top_factor=2.0)
        assert topo.bandwidth(0, 4) == 64.0

    def test_rejects_uneven_pods(self):
        with pytest.raises(TopologyError):
            t2(3, 1, 32)

    def test_rejects_bad_levels(self):
        with pytest.raises(TopologyError):
            TreeTopology(32, 4, num_levels=3)

    def test_two_level_needs_even_pods(self):
        with pytest.raises(TopologyError):
            TreeTopology(30, 5, num_levels=2)


class TestHeterogeneous:
    def test_half_slow(self):
        topo = t3(32, seed=0)
        assert int(topo.is_slow.sum()) == 16

    def test_pair_limited_by_slower(self):
        topo = HeterogeneousTopology(4, link_bps=100.0, slow_fraction=0.5,
                                     slow_factor=2.0, seed=1)
        slow = np.flatnonzero(topo.is_slow)
        fast = np.flatnonzero(~topo.is_slow)
        assert topo.bandwidth(int(fast[0]), int(fast[1])) == 100.0
        assert topo.bandwidth(int(fast[0]), int(slow[0])) == 50.0
        if slow.size >= 2:
            assert topo.bandwidth(int(slow[0]), int(slow[1])) == 50.0

    def test_deterministic_by_seed(self):
        a = t3(16, seed=3)
        b = t3(16, seed=3)
        assert np.array_equal(a.is_slow, b.is_slow)

    def test_slow_set_is_immutable(self):
        """The tables were built from ``is_slow``; it cannot drift."""
        topo = t3(8, seed=0)
        with pytest.raises(ValueError):
            topo.is_slow[0] = not topo.is_slow[0]


SHAPES = {"T1": lambda: t1(8, link_bps=100.0),
          "T2(4,2)": lambda: t2(4, 2, 8, link_bps=320.0),
          "T3": lambda: t3(8, link_bps=100.0, seed=1)}


class TestTables:
    """Every public query is a lookup into tables built once."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("bad", [-1, 8], ids=["minus-1", "M"])
    def test_rejects_bad_machine(self, shape, bad):
        topo = SHAPES[shape]()
        with pytest.raises(TopologyError):
            topo.pod_of(bad)
        for src, dst in ((0, bad), (bad, 0)):
            with pytest.raises(TopologyError):
                topo.bandwidth(src, dst)
            with pytest.raises(TopologyError):
                topo.flow_resources(src, dst)
            with pytest.raises(TopologyError):
                NetworkModel(topo).transfer(src, dst, 10)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_lookups_answer_what_the_topology_describes(self, shape):
        topo = SHAPES[shape]()
        n = topo.num_machines
        assert topo.bandwidths.shape == (n, n)
        for src in range(n):
            assert topo.pod_of(src) == topo._machine_pod(src)
            assert topo.bandwidth(src, src) == float("inf")
            assert topo.flow_resources(src, src) == ()
            for dst in range(n):
                if src != dst:
                    assert (topo.bandwidth(src, dst)
                            == topo._pair_bandwidth(src, dst))
                    assert (topo.flow_resources(src, dst)
                            == tuple(topo._pair_resources(src, dst)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_tables_are_built_once_and_read_only(self, shape):
        topo = SHAPES[shape]()
        assert topo.bandwidths is topo.bandwidths
        assert topo.pair_resources is topo.pair_resources
        for table in (topo.pods, topo.bandwidths):
            with pytest.raises(ValueError):
                table[0] = 0
