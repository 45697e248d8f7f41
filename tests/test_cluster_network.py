"""Unit tests for the network cost model and traffic accounting."""

import pytest

from repro.cluster.network import NetworkModel
from repro.cluster.topology import t1, t2, t3


class TestTransfer:
    def test_transfer_time(self):
        net = NetworkModel(t1(4, link_bps=100.0))
        assert net.transfer_time(0, 1, 200) == 2.0

    def test_local_transfer_free(self):
        net = NetworkModel(t1(4))
        assert net.transfer_time(1, 1, 1000) == 0.0
        assert net.transfer(1, 1, 1000) == 0.0
        assert net.traffic.total_bytes == 0

    def test_traffic_accounting(self):
        net = NetworkModel(t2(2, 1, 8, link_bps=100.0))
        net.transfer(0, 1, 100)   # intra-pod
        net.transfer(0, 4, 100)   # cross-pod
        assert net.traffic.total_bytes == 200
        assert net.traffic.cross_pod_bytes == 100
        assert net.traffic.transfers == 2
        assert net.traffic.per_pair[(0, 4)] == 100

    def test_reset(self):
        net = NetworkModel(t1(2))
        net.transfer(0, 1, 10)
        net.reset()
        assert net.traffic.total_bytes == 0


class TestEffectiveBandwidth:
    """One flow's fair-share bandwidth, as the scheduler prices it."""

    def test_no_users_falls_back_to_pairwise(self):
        net = NetworkModel(t2(2, 1, 32, link_bps=320.0))
        assert net.flow_constraint(0, 16)[0] == 10.0  # /32

    def test_fair_share_with_full_contention(self):
        """All pod members on the uplink => the paper's worst case."""
        topo = t2(2, 1, 32, link_bps=320.0)
        net = NetworkModel(topo)
        users = {("uplink", 0, 2): set(range(16)),
                 ("uplink", 1, 2): set(range(16, 32))}
        assert net.flow_constraint(0, 16, users)[0] == pytest.approx(10.0)

    def test_few_users_get_more(self):
        topo = t2(2, 1, 32, link_bps=320.0)
        net = NetworkModel(topo)
        users = {("uplink", 0, 2): {0}, ("uplink", 1, 2): {16}}
        bw = net.flow_constraint(0, 16, users)[0]
        assert bw > 10.0
        assert bw <= 320.0

    def test_intra_pod_unaffected(self):
        topo = t2(2, 1, 32, link_bps=320.0)
        net = NetworkModel(topo)
        assert net.flow_constraint(0, 1, {})[0] == 320.0

    def test_t3_slow_nic_resource(self):
        topo = t3(8, link_bps=100.0, seed=0)
        net = NetworkModel(topo)
        slow = int(topo.is_slow.argmax())
        fast = int((~topo.is_slow).argmax())
        assert net.flow_constraint(fast, slow, {})[0] == 50.0


class TestFlowsTime:
    def test_empty_flows(self):
        net = NetworkModel(t1(4, link_bps=100.0))
        assert net.flows_time(0, [], nic_bps=50.0) == 0.0

    def test_single_flow_pair_limited(self):
        net = NetworkModel(t1(4, link_bps=10.0))
        assert net.flows_time(0, [(1, 100)], nic_bps=1000.0) == 10.0

    def test_multiplexing_caps_at_nic(self):
        net = NetworkModel(t1(8, link_bps=10.0))
        flows = [(i, 100) for i in range(1, 6)]  # 5 full-rate flows
        # aggregate capacity = min(nic=30, 10 * 5) = 30
        assert net.flows_time(0, flows, nic_bps=30.0) == pytest.approx(
            500 / 30
        )

    def test_reduced_class_does_not_multiplex(self):
        topo = t2(2, 1, 8, link_bps=320.0)
        net = NetworkModel(topo)
        flows = [(m, 100) for m in range(4, 8)]  # 4 cross-pod flows
        # pairwise worst case: each at 10 B/s, shared: aggregate 10
        t = net.flows_time(0, flows, nic_bps=1000.0)
        assert t == pytest.approx(400 / 10.0)

    def test_local_flows_ignored(self):
        net = NetworkModel(t1(4, link_bps=10.0))
        assert net.flows_time(0, [(0, 500)], nic_bps=10.0) == 0.0


class TestGroupTimes:
    def test_all_to_all_worst_sender(self):
        net = NetworkModel(t2(2, 1, 8, link_bps=160.0))
        # 4+4 pods: worst sender crosses pods for 4 peers at 5 B/s
        t = net.all_to_all_time(range(8), bytes_per_pair=10.0)
        intra = 3 * 10 / 160.0
        cross = 4 * 10 / 5.0
        assert t == pytest.approx(intra + cross)

    def test_cross_exchange_zero_cases(self):
        net = NetworkModel(t1(4))
        assert net.cross_exchange_time([0], [1], 0.0) == 0.0
        assert net.cross_exchange_time([], [1], 100.0) == 0.0

    def test_cross_exchange_slower_on_tree(self):
        flat = NetworkModel(t1(8, link_bps=100.0))
        tree = NetworkModel(t2(2, 1, 8, link_bps=100.0))
        volume = 1000.0
        assert tree.cross_exchange_time(range(4), range(4, 8), volume) > \
            flat.cross_exchange_time(range(4), range(4, 8), volume)
