"""Unit tests for the propagation engine's mechanics and accounting."""

import numpy as np
import pytest

from repro.core.range_plan import contiguous_range_plan
from repro.core.surfer import Surfer
from repro.graph import Graph, pagerank
from repro.propagation.api import MessageBox, PropagationApp, message_nbytes
from repro.propagation.engine import virtual_partition
from repro.apps import NetworkRankingPropagation
from tests.conftest import make_test_cluster


class TestMessageBox:
    def test_bag_semantics(self):
        box = MessageBox()
        box.add(1, 10)
        box.add(1, 20)
        assert box.values_of(1) == [10, 20]
        assert box.message_count() == 2
        assert len(box) == 1

    def test_merge_semantics(self):
        box = MessageBox(merge=lambda a, b: a + b)
        box.add(1, 10)
        box.add(1, 20)
        assert box.values_of(1) == [30]
        assert box.message_count() == 2

    def test_missing_dest(self):
        assert MessageBox().values_of(99) == []

    def test_payload_bytes_counts_merged_once(self):
        app = NetworkRankingPropagation()
        raw = MessageBox()
        merged = MessageBox(merge=lambda a, b: a + b)
        for box in (raw, merged):
            box.add(1, 1.0)
            box.add(1, 2.0)
        assert raw.payload_bytes(app) == 2 * message_nbytes(app, 1.0)
        assert merged.payload_bytes(app) == message_nbytes(app, 3.0)


class TestVirtualPartition:
    def test_deterministic(self):
        assert virtual_partition(42, 16) == virtual_partition(42, 16)

    def test_in_range(self):
        for key in range(100):
            assert 0 <= virtual_partition(key, 7) < 7

    def test_numpy_ints_match_python_ints(self):
        assert virtual_partition(np.int64(9), 8) == virtual_partition(9, 8)


class _CountingApp(PropagationApp):
    """Sends 1 along every edge, sums at the destination."""

    name = "count-in-degree"
    is_associative = True
    combine_all_vertices = True

    def setup(self, pgraph):
        class State:
            values = {}
            num = pgraph.num_vertices
        return State()

    def transfer(self, u, v, state):
        return 1

    def combine(self, v, values, state):
        return sum(values)

    def merge(self, a, b):
        return a + b

    def update(self, state, combined):
        state.values = dict(combined)

    def finalize(self, state):
        return state.values


class TestEngineSemantics:
    @pytest.fixture()
    def surfer(self, small_graph):
        return Surfer(small_graph, make_test_cluster(4), num_parts=8,
                      seed=3)

    def test_counts_in_degrees(self, small_graph, surfer):
        result = surfer.run_propagation(_CountingApp())
        expected = small_graph.in_degrees()
        for v in range(small_graph.num_vertices):
            assert result.result.get(v, 0) == expected[v]

    def test_local_opts_do_not_change_results(self, small_graph, surfer):
        a = surfer.run_propagation(_CountingApp(), local_opts=True)
        b = surfer.run_propagation(_CountingApp(), local_opts=False)
        assert a.result == b.result

    def test_local_opts_reduce_io(self, surfer):
        on = surfer.run_propagation(_CountingApp(), local_opts=True)
        off = surfer.run_propagation(_CountingApp(), local_opts=False)
        # merging only helps when several messages share a destination;
        # traffic must never increase, and disk I/O must strictly drop
        assert on.metrics.network_bytes <= off.metrics.network_bytes
        assert on.metrics.disk_bytes < off.metrics.disk_bytes
        # small graphs leave little room, but it must not get much worse
        assert on.metrics.response_time <= 1.1 * off.metrics.response_time

    def test_report_shape(self, surfer):
        job = surfer.run_propagation(_CountingApp())
        assert len(job.reports) == 1
        report = job.reports[0]
        assert report.messages_emitted == surfer.graph.num_edges
        assert report.messages_shipped <= report.messages_emitted
        assert report.elapsed >= 0

    def test_local_propagation_counts_inner_vertices(self, surfer):
        job = surfer.run_propagation(_CountingApp(), local_opts=True)
        report = job.reports[0]
        assert report.locally_propagated > 0

    def test_pagerank_matches_oracle_multi_iteration(
        self, small_graph, surfer
    ):
        job = surfer.run_propagation(NetworkRankingPropagation(),
                                     iterations=4)
        oracle = pagerank(small_graph, num_iterations=4)
        assert np.allclose(job.result, oracle)

    def test_metrics_reset_between_runs(self, surfer):
        first = surfer.run_propagation(_CountingApp())
        second = surfer.run_propagation(_CountingApp())
        assert second.metrics.network_bytes == first.metrics.network_bytes
        assert second.metrics.response_time == pytest.approx(
            first.metrics.response_time
        )

    def test_iterations_scale_io(self, surfer):
        one = surfer.run_propagation(NetworkRankingPropagation(),
                                     iterations=1)
        three = surfer.run_propagation(NetworkRankingPropagation(),
                                       iterations=3)
        assert three.metrics.disk_bytes > 2 * one.metrics.disk_bytes

    def test_rejects_zero_iterations(self, surfer):
        from repro.errors import JobError
        with pytest.raises(JobError):
            surfer.run_propagation(_CountingApp(), iterations=0)


class _SilentOnArrivalApp(PropagationApp):
    """``combine`` answers None for a vertex that received messages and
    -1.0 for one that received none; every call is recorded."""

    name = "silent-on-arrival"
    combine_all_vertices = True

    def setup(self, pgraph):
        class State:
            values = np.zeros(pgraph.num_vertices)
            calls = []
        return State()

    def transfer(self, u, v, state):
        return 1.0

    def transfer_array(self, src, dst, state):
        return np.ones(src.size)

    def combine(self, v, values, state):
        state.calls.append((v, list(values)))
        return None if values else -1.0

    def finalize(self, state):
        return state


class TestLocalPropagationCombinesOnce:
    """Regression: the ``combine_all_vertices`` sweep skipped only the
    locally propagated vertices whose combine had an *output*; one whose
    combine answered None was combined again over the empty bag, charged
    one more cpu op and overwritten."""

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_none_output_is_not_combined_twice(self, vectorized):
        # two ranges {0, 1} and {2, 3}; 0 -> 1 stays inside the first,
        # so vertex 1 is inner and locally propagated
        graph = Graph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        cluster = make_test_cluster(2)
        plan = contiguous_range_plan(graph, cluster.topology, 2,
                                     offsets=np.array([0, 2, 4]))
        surfer = Surfer(graph, cluster, plan=plan, replication=1)
        job = surfer.run_propagation(_SilentOnArrivalApp(),
                                     vectorized=vectorized)
        state = job.result
        assert sorted(state.calls) == [(0, []), (1, [1.0]), (2, []),
                                       (3, [1.0])]
        assert state.values.tolist() == [-1.0, 0.0, -1.0, 0.0]
        cpu = {e.task.name: e.task.cpu_ops for e in job.executions}
        # transfer: 2 per edge + (1 arrival + 1 vertex) locally combined;
        # combine: one op for the vertex nothing arrived at
        assert cpu == {"transfer[0]": 4.0, "transfer[1]": 4.0,
                       "combine[0]": 1.0, "combine[1]": 1.0}
