"""Unit tests for the network cost model and traffic accounting."""

import pytest

from repro.cluster.network import NetworkModel, StageConstraints
from repro.cluster.topology import t1, t2, t3
from repro.runtime.events import MetricsRegistry


def own_stage(net, machine, flows):
    """Constraints of a stage whose only traffic is ``machine``'s flows."""
    return StageConstraints(net.topology, [(machine, peer)
                                           for peer, __ in flows])


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
        net.transfer(4, 0, 50, background=True)
        assert net.traffic.background_bytes == 50
        assert net.traffic.cross_pod_bytes == 150

    def test_task_flows_counted_in_one_update(self):
        """Self, zero-byte and sub-byte flows count nothing; the rest
        count one transfer each, cross-pod bytes by the pods table."""
        metrics = MetricsRegistry()
        net = NetworkModel(t2(2, 1, 8, link_bps=100.0), metrics=metrics)
        net.account_flows(0, [(1, 100), (4, 50.7), (0, 999), (5, 0.5)],
                          [(6, 30), (2, 0)])
        assert vars(net.traffic) == {"total_bytes": 180,
                                     "cross_pod_bytes": 80,
                                     "background_bytes": 0,
                                     "transfers": 3}
        assert metrics.counters == {"network.bytes_total": 180,
                                    "network.transfers": 3,
                                    "network.bytes_cross_pod": 80}
        net.account_flows(1, [(1, 10)], [(2, 0.9)])
        assert net.traffic.transfers == 3

    def test_reset(self):
        net = NetworkModel(t1(2))
        net.transfer(0, 1, 10)
        net.reset()
        assert net.traffic.total_bytes == 0


class TestEffectiveBandwidth:
    """One flow's fair-share bandwidth, as the scheduler prices it."""

    def test_pair_outside_the_stage_resolves_on_demand(self):
        """A pair no task collected shares the uplinks with the stage's
        users only — here nobody, so it gets a whole uplink."""
        topo = t2(2, 1, 32, link_bps=320.0)
        constraints = StageConstraints(topo, [])
        assert (0, 16) not in constraints
        assert constraints[0, 16] == (160.0, ("uplink", 0, 2))
        assert (0, 16) in constraints
        assert topo.bandwidth(0, 16) == 10.0  # the pairwise worst case

    def test_fair_share_with_full_contention(self):
        """All pod members on the uplink => the paper's worst case."""
        topo = t2(2, 1, 32, link_bps=320.0)
        constraints = StageConstraints(topo, [(m, m + 16)
                                              for m in range(16)])
        assert constraints.sharers == {("uplink", 0, 2): 16,
                                       ("uplink", 1, 2): 16}
        assert constraints[0, 16][0] == pytest.approx(10.0)

    def test_few_users_get_more(self):
        topo = t2(2, 1, 32, link_bps=320.0)
        bw = StageConstraints(topo, [(0, 16)])[0, 16][0]
        assert bw > 10.0
        assert bw <= 320.0

    def test_intra_pod_unaffected(self):
        topo = t2(2, 1, 32, link_bps=320.0)
        assert StageConstraints(topo, [(0, 1)])[0, 1] == (320.0, None)

    def test_t3_slow_nic_resource(self):
        topo = t3(8, link_bps=100.0, seed=0)
        slow = int(topo.is_slow.argmax())
        fast = int((~topo.is_slow).argmax())
        constraints = StageConstraints(topo, [(fast, slow)])
        assert constraints[fast, slow] == (50.0, ("slow-nic", slow))


class TestFlowsTime:
    def test_empty_flows(self):
        net = NetworkModel(t1(4, link_bps=100.0))
        assert net.flows_time(0, [], 50.0, own_stage(net, 0, [])) == 0.0

    def test_single_flow_pair_limited(self):
        net = NetworkModel(t1(4, link_bps=10.0))
        flows = [(1, 100)]
        assert net.flows_time(0, flows, 1000.0,
                              own_stage(net, 0, flows)) == 10.0

    def test_multiplexing_caps_at_nic(self):
        net = NetworkModel(t1(8, link_bps=10.0))
        flows = [(i, 100) for i in range(1, 6)]  # 5 full-rate flows
        # aggregate capacity = min(nic=30, 10 * 5) = 30
        assert net.flows_time(0, flows, 30.0, own_stage(net, 0, flows)) \
            == pytest.approx(500 / 30)

    def test_reduced_class_does_not_multiplex(self):
        topo = t2(2, 1, 8, link_bps=320.0)
        net = NetworkModel(topo)
        flows = [(m, 100) for m in range(4, 8)]  # 4 cross-pod flows
        # pod 1's uplink (capacity 40) has four users, a share of 10 each;
        # flows through one congested resource do not multiplex
        t = net.flows_time(0, flows, 1000.0, own_stage(net, 0, flows))
        assert t == pytest.approx(400 / 10.0)

    def test_local_flows_ignored(self):
        net = NetworkModel(t1(4, link_bps=10.0))
        flows = [(0, 500)]
        assert net.flows_time(0, flows, 10.0, own_stage(net, 0, [])) == 0.0


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
