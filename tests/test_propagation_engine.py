"""Unit tests for the propagation engine's mechanics and accounting."""

import numpy as np
import pytest

from repro.core.range_plan import contiguous_range_plan
from repro.core.surfer import Surfer
from repro.graph import Graph, pagerank
from repro.propagation.api import PropagationApp, message_nbytes
from repro.propagation.engine import virtual_partition
from repro.apps import NetworkRankingPropagation
from tests.conftest import make_test_cluster


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
        cpu = {e.task.name: e.task.cpu_ops
               for e in job.events.task_spans()}
        # transfer: 2 per edge + (1 arrival + 1 vertex) locally combined;
        # combine: one op for the vertex nothing arrived at
        assert cpu == {"transfer[0]": 4.0, "transfer[1]": 4.0,
                       "combine[0]": 1.0, "combine[1]": 1.0}


# ----------------------------------------------------------------------
# Routing and its charges, computed from the edge list
# ----------------------------------------------------------------------
#: two ranges, {0..3} and {4..7}; 1, 2, 5 and 6 touch no cross edge, so
#: they are the inner vertices, and 0, 3, 4 and 7 the boundary ones
_HAND_EDGES = [
    (0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3), (2, 0), (3, 0),
    (4, 5), (4, 6), (5, 6), (6, 5), (5, 7), (6, 7), (6, 4), (7, 4),
    (0, 4), (3, 4), (3, 7), (4, 0), (4, 3), (7, 0),
]
_HAND_PARTS = [0, 0, 0, 0, 1, 1, 1, 1]


class _SumApp(PropagationApp):
    """Array hooks and ``merge_ufunc``: ``u + 1`` along every edge."""

    name = "hand-sum"
    is_associative = True
    merge_ufunc = np.add

    def setup(self, pgraph):
        return type("State", (), {"values": np.zeros(pgraph.num_vertices)})

    def transfer(self, u, v, state):
        return float(u + 1)

    def transfer_array(self, src, dst, state):
        return (src + 1).astype(np.float64)

    def combine(self, v, values, state):
        return sum(values)

    def combine_array(self, vertices, folded, counts, state):
        return folded

    def merge(self, a, b):
        return a + b


class _TupleApp(PropagationApp):
    """Object values, no ``transfer`` on edges with ``u + v`` divisible
    by 3, merged in Python (tuple concatenation), sized per id."""

    name = "hand-tuples"
    is_associative = True

    def setup(self, pgraph):
        return type("State", (), {"values": {}})

    def transfer(self, u, v, state):
        return None if (u + v) % 3 == 0 else (u,)

    def combine(self, v, values, state):
        return tuple(sorted(u for value in values for u in value))

    def merge(self, a, b):
        return a + b

    def value_nbytes(self, value):
        return 8.0 * len(value)

    def update(self, state, combined):
        state.values.update(combined)


class _VirtualSumApp(PropagationApp):
    """Virtual keys of two types: ``u % 3`` for even ``u``, a string for
    odd ones; every vertex also counts itself under ``"all"``."""

    name = "hand-virtual"
    is_associative = True
    uses_virtual_vertices = True

    def setup(self, pgraph):
        return type("State", (), {"values": {}})

    def virtual_transfer(self, u, state):
        yield ("odd" if u % 2 else u % 3), u
        yield "all", 1

    def virtual_combine(self, key, values, state):
        return sum(values)

    def merge(self, a, b):
        return a + b

    def update(self, state, combined):
        state.values.update(combined)


def _hand_expectation(app, local_opts):
    """The iteration's report fields and per-task cpu ops, derived from
    the edge list alone: who emits what to which partition, what is
    merged, what is spilled and what crosses."""
    parts = _HAND_PARTS
    num_parts = 2
    boundary = {w for u, v in _HAND_EDGES if parts[u] != parts[v]
                for w in (u, v)}
    emitted = {p: [] for p in range(num_parts)}  # (dest, part, value)
    scan = {p: 0 for p in range(num_parts)}
    if app.uses_virtual_vertices:
        for u in range(len(parts)):
            scan[parts[u]] += 1  # one op per visited vertex
            for key, value in app.virtual_transfer(u, None):
                emitted[parts[u]].append(
                    (key, virtual_partition(key, num_parts), value))
    else:
        for u, v in sorted(_HAND_EDGES):
            scan[parts[u]] += 1  # one op per scanned edge
            value = app.transfer(u, v, None)
            if value is not None:
                emitted[parts[u]].append((v, parts[v], value))

    merging = local_opts and app.is_associative

    def entries(messages):
        """Wire entries: one per message, or one per destination."""
        if not merging:
            return messages
        merged: dict = {}
        for d, q, v in messages:
            merged[d] = (q, app.merge(merged[d][1], v) if d in merged
                         else v)
        return [(d, q, v) for d, (q, v) in merged.items()]

    def nbytes(wire):
        return sum(message_nbytes(app, v) for _, _, v in wire)

    report = dict(messages_emitted=0, messages_shipped=0,
                  network_bytes=0.0, spill_bytes=0.0, locally_propagated=0)
    cpu: dict[str, float] = {}
    arrivals: dict[int, list] = {q: [] for q in range(num_parts)}
    for p, messages in emitted.items():
        inner = [d for d, q, _ in messages
                 if local_opts and not app.uses_virtual_vertices
                 and q == p and d not in boundary]
        spilled = entries([m for m in messages
                           if m[1] == p and m[0] not in inner])
        cross = [m for m in messages if m[1] != p]
        shipped = entries(cross)
        report["messages_emitted"] += len(messages)
        report["messages_shipped"] += len(shipped)
        report["network_bytes"] += nbytes(shipped)
        report["spill_bytes"] += nbytes(spilled)
        report["locally_propagated"] += len(set(inner))
        cpu[f"transfer[{p}]"] = (
            scan[p] + len(messages)  # scan + route
            + len(inner) + len(set(inner))  # local propagation's combine
            + (len(cross) if merging else 0))  # the merge work
        arrivals[p] += spilled
        for d, q, v in shipped:
            arrivals[q].append((d, q, v))
    for q, got in arrivals.items():
        cpu[f"combine[{q}]"] = float(len(got) + len({d for d, _, _ in got}))
    return report, cpu


class TestRoutingFromFirstPrinciples:
    """Messages, spill and network bytes, local propagation and cpu ops
    of one iteration on a hand-built two-partition graph, at O1 (no
    local optimizations) and O4, for three app shapes: a
    ``merge_ufunc`` app on its array hooks, an object-valued app that
    drops edges and merges in Python, and a virtual-key app."""

    @pytest.fixture(scope="class")
    def surfer(self):
        graph = Graph.from_edges(_HAND_EDGES, num_vertices=8)
        cluster = make_test_cluster(2)
        plan = contiguous_range_plan(graph, cluster.topology, 2,
                                     offsets=np.array([0, 4, 8]))
        surfer = Surfer(graph, cluster, plan=plan, replication=1)
        assert surfer.pgraph.parts.tolist() == _HAND_PARTS
        assert np.flatnonzero(~surfer.pgraph.boundary_mask).tolist() == [
            1, 2, 5, 6]
        return surfer

    @pytest.mark.parametrize("local_opts", [False, True], ids=["O1", "O4"])
    @pytest.mark.parametrize("app_cls", [_SumApp, _TupleApp,
                                         _VirtualSumApp])
    def test_counts_and_charges(self, surfer, app_cls, local_opts):
        app = app_cls()
        job = surfer.run_propagation(app, local_opts=local_opts)
        report, cpu = _hand_expectation(app, local_opts)
        (got,) = job.reports
        assert {name: getattr(got, name) for name in report} == report
        assert {e.task.name: e.task.cpu_ops
                for e in job.events.task_spans()} == cpu

    def test_the_hand_graph_exercises_every_route(self):
        """Inner, boundary and cross destinations all occur, and merging
        collapses some of each kind at O4."""
        for app in (_SumApp(), _TupleApp()):
            o1, _ = _hand_expectation(app, local_opts=False)
            o4, _ = _hand_expectation(app, local_opts=True)
            assert o4["locally_propagated"] > 0
            assert 0 < o4["spill_bytes"] < o1["spill_bytes"]
            assert 0 < o4["messages_shipped"] < o1["messages_shipped"]
        assert _hand_expectation(_TupleApp(), False)[0][
            "messages_emitted"] < len(_HAND_EDGES)
