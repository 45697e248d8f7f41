"""Sparse-frontier propagation: the traversal suite's parity matrix.

Two layered contracts (see docs/DESIGN.md, frontier section):

* **frontier vs dense** — both modes route the *identical* message set
  (``frontier()`` agrees with ``select``), so outputs and every
  ``propagation.*`` counter must match exactly; the modes differ only in
  Transfer I/O pricing (frontier reads active rows, dense reads the
  partition) and the frontier-summary exchange on the network.
* **scalar vs vectorized** (PR 2/4 discipline) — within either mode the
  array fast path reproduces the scalar oracle bit for bit, costs
  included.

Plus: single-machine oracles (bfs_levels / dijkstra / core_numbers /
pagerank), PYTHONHASHSEED determinism, checkpoint/restart and chaos
recovery in frontier mode, top-down/bottom-up direction switching, and
the delta-PageRank convergent-tail message saving (>= 5x vs dense NR).
"""

from __future__ import annotations

import heapq
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps.network_ranking import NetworkRankingPropagation
from repro.apps.traversal import (
    BreadthFirstSearchPropagation,
    DeltaPageRankPropagation,
    KCoreDecompositionPropagation,
    ShortestPathsPropagation,
    edge_weight,
    edge_weight_array,
    h_index,
)
from repro.cluster.faults import FaultPlan
from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.graph.algorithms import (
    bfs_levels,
    dijkstra,
    pagerank,
)
from repro.graph.generators import (
    composite_social_graph,
    star,
    web_feeder_graph,
)
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.events import reconcile
from tests.conftest import make_test_cluster

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def core_numbers(graph) -> np.ndarray:
    """Coreness of every vertex by peeling (the KCORE oracle).

    Undirected semantics: run on a symmetrized graph, where
    ``out_degrees`` is the undirected degree.  Batagelj–Zaveršnik
    peeling with a lazy heap: repeatedly remove a minimum-degree vertex;
    its coreness is the largest minimum seen so far.
    """
    n = graph.num_vertices
    cur = graph.out_degrees().astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    heap = [(int(cur[v]), v) for v in range(n)]
    heapq.heapify(heap)
    done = np.zeros(n, dtype=bool)
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if done[v] or d != cur[v]:
            continue  # stale lazy-heap entry
        done[v] = True
        k = max(k, d)
        core[v] = k
        for u in graph.out_neighbors(v):
            u = int(u)
            if not done[u] and cur[u] > d:
                cur[u] -= 1
                heapq.heappush(heap, (int(cur[u]), u))
    return core

#: app name -> (class, needs undirected/symmetrized graph)
TRAVERSAL_APPS = {
    "BFS": (BreadthFirstSearchPropagation, False),
    "SSSP": (ShortestPathsPropagation, False),
    "KCORE": (KCoreDecompositionPropagation, True),
    "DPR": (DeltaPageRankPropagation, False),
}


def _graph_for(app_name: str, graph):
    return graph.symmetrized() if TRAVERSAL_APPS[app_name][1] else graph


def _surfer(graph, machines=4, parts=8, seed=3, replication=1):
    return Surfer(graph, make_test_cluster(machines), num_parts=parts,
                  seed=seed, replication=replication)


def _run(app_name, graph, frontier, parts=8, vectorized=None, **kw):
    cls = TRAVERSAL_APPS[app_name][0]
    surfer = _surfer(_graph_for(app_name, graph), parts=parts)
    return surfer.run_propagation(cls(), iterations=100,
                                  until_convergence=True,
                                  frontier=frontier,
                                  vectorized=vectorized, **kw)


def _job_signature(job):
    reports = [
        (r.messages_emitted, r.messages_shipped, r.network_bytes,
         r.spill_bytes, r.locally_propagated)
        for r in job.reports
    ]
    tasks = [
        (e.task.name, e.task.cpu_ops, e.task.disk_read_bytes,
         e.task.disk_write_bytes, tuple(e.task.sends),
         tuple(e.task.receives), e.task.disk_penalty)
        for e in job.events.task_spans()
    ]
    metrics = (job.metrics.network_bytes, job.metrics.disk_bytes,
               job.metrics.response_time)
    return reports, tasks, metrics


# ----------------------------------------------------------------------
# UDF helpers
# ----------------------------------------------------------------------
class TestHelpers:
    def test_h_index(self):
        assert h_index([]) == 0
        assert h_index([0, 0]) == 0
        assert h_index([5]) == 1
        assert h_index([3, 3, 3]) == 3
        assert h_index([5, 4, 3, 2, 1]) == 3
        assert h_index([10, 10, 10, 10]) == 4

    def test_edge_weights_positive_bounded_and_deterministic(self):
        src = np.arange(200, dtype=np.int64)
        dst = (src * 7 + 3) % 200
        w = edge_weight_array(src, dst)
        assert w.dtype == np.int64
        assert w.min() >= 1 and w.max() <= 16
        assert np.array_equal(w, edge_weight_array(src, dst))
        # scalar twin is bit-identical (it IS the array path)
        for u, v in [(0, 3), (17, 5), (199, 0)]:
            i = int(np.where((src == u) & (dst == v))[0][0]) \
                if ((src == u) & (dst == v)).any() else None
            assert edge_weight(u, v) == int(
                edge_weight_array(np.array([u]), np.array([v]))[0])
            if i is not None:
                assert edge_weight(u, v) == int(w[i])

    def test_weights_not_all_equal(self):
        src = np.arange(50, dtype=np.int64)
        w = edge_weight_array(src, src + 1)
        assert len(set(w.tolist())) > 1


# ----------------------------------------------------------------------
# Single-machine oracles
# ----------------------------------------------------------------------
class TestOracles:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=4, community_size=32, seed=7
        )

    def test_bfs_matches_bfs_levels(self, graph):
        job = _run("BFS", graph, frontier=True)
        assert not job.failed
        assert np.array_equal(job.result, bfs_levels(graph, 0))

    def test_sssp_matches_dijkstra(self, graph):
        job = _run("SSSP", graph, frontier=True)
        assert not job.failed
        assert np.array_equal(job.result,
                              dijkstra(graph, 0, edge_weight))

    def test_sssp_never_longer_than_hops_times_16(self, graph):
        job = _run("SSSP", graph, frontier=True)
        hops = bfs_levels(graph, 0)
        reach = hops >= 0
        assert np.array_equal(np.asarray(job.result) >= 0, reach)
        assert (np.asarray(job.result)[reach]
                <= hops[reach] * 16).all()

    def test_kcore_matches_peeling(self, graph):
        gs = graph.symmetrized()
        job = _run("KCORE", graph, frontier=True)
        assert not job.failed
        assert np.array_equal(job.result, core_numbers(gs))

    def test_dpr_converges_to_pagerank(self, graph):
        job = _run("DPR", graph, frontier=True)
        assert not job.failed
        oracle = pagerank(graph, num_iterations=200, dangling="self")
        assert np.allclose(job.result, oracle, rtol=0, atol=1e-3)
        assert np.abs(np.asarray(job.result) - oracle).max() < 1e-3


# ----------------------------------------------------------------------
# Frontier vs dense: identical semantics, cheaper Transfer reads
# ----------------------------------------------------------------------
class TestFrontierDenseEquivalence:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=4, community_size=32, seed=7
        )

    @pytest.mark.parametrize("parts", [4, 8])
    @pytest.mark.parametrize("app_name", sorted(TRAVERSAL_APPS))
    def test_outputs_and_message_counters_identical(
            self, graph, app_name, parts):
        dense = _run(app_name, graph, frontier=False, parts=parts)
        sparse = _run(app_name, graph, frontier=True, parts=parts)
        assert not dense.failed and not sparse.failed
        assert np.array_equal(dense.result, sparse.result)
        # identical message routing, iteration by iteration
        assert len(dense.reports) == len(sparse.reports)
        for rd, rs in zip(dense.reports, sparse.reports):
            assert rd.messages_emitted == rs.messages_emitted
            assert rd.messages_shipped == rs.messages_shipped
            assert rd.locally_propagated == rs.locally_propagated
            assert rd.spill_bytes == rs.spill_bytes

    @pytest.mark.parametrize("app_name", sorted(TRAVERSAL_APPS))
    def test_cost_split_network_up_disk_down(self, graph, app_name):
        dense = _run(app_name, graph, frontier=False)
        sparse = _run(app_name, graph, frontier=True)
        exchange = sparse.events.metrics.get("frontier.exchange_bytes")
        # network: dense traffic plus exactly the summary exchange
        assert sparse.metrics.network_bytes == pytest.approx(
            dense.metrics.network_bytes + exchange)
        # disk: bottom-up reads what dense reads, top-down only less
        assert sparse.metrics.disk_bytes <= dense.metrics.disk_bytes
        assert sparse.events.metrics.get("frontier.active") > 0

    @pytest.mark.parametrize("app_name", sorted(TRAVERSAL_APPS))
    def test_transfer_cpu_identical_across_modes(self, graph, app_name):
        dense = _run(app_name, graph, frontier=False)
        sparse = _run(app_name, graph, frontier=True)
        for ed, es in zip(dense.events.task_spans(),
                          sparse.events.task_spans()):
            assert ed.task.name == es.task.name
            assert ed.task.cpu_ops == es.task.cpu_ops

    def test_dense_mode_has_no_frontier_counters(self, graph):
        dense = _run("BFS", graph, frontier=False)
        assert dense.events.metrics.get("frontier.active") == 0
        assert dense.events.metrics.get("frontier.exchange_bytes") == 0

    @pytest.mark.parametrize("app_name", sorted(TRAVERSAL_APPS))
    def test_both_modes_reconcile(self, graph, app_name):
        assert reconcile(_run(app_name, graph, frontier=True)) == []
        assert reconcile(_run(app_name, graph, frontier=False)) == []


# ----------------------------------------------------------------------
# Scalar vs vectorized inside frontier mode (PR 2/4 discipline)
# ----------------------------------------------------------------------
class TestFrontierFastPathParity:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=4, community_size=32, seed=9
        )

    @pytest.mark.parametrize("app_name", sorted(TRAVERSAL_APPS))
    def test_bit_identical_products_and_costs(self, graph, app_name):
        scalar = _run(app_name, graph, frontier=True, vectorized=False)
        vector = _run(app_name, graph, frontier=True, vectorized=True)
        assert not scalar.failed and not vector.failed
        assert np.array_equal(scalar.result, vector.result)
        assert _job_signature(scalar) == _job_signature(vector)


# ----------------------------------------------------------------------
# Direction switching (Buluc-Madduri top-down/bottom-up)
# ----------------------------------------------------------------------
class TestDirectionSwitching:
    def test_kcore_switches_from_bottom_up_to_top_down(self):
        # all vertices start active -> bottom-up sequential scans; the
        # frontier then shrinks -> per-partition flips to top-down
        graph = composite_social_graph(
            num_communities=4, community_size=32, seed=7
        )
        job = _run("KCORE", graph, frontier=True)
        m = job.events.metrics
        assert m.get("frontier.bottom_up_scans") > 0
        assert m.get("frontier.direction_switches") > 0

    def test_bfs_single_source_starts_top_down(self):
        graph = composite_social_graph(
            num_communities=4, community_size=32, seed=7
        )
        job = _run("BFS", graph, frontier=True)
        # a 1-vertex frontier must never trigger a full partition scan
        # on iteration one; scans can only appear later if the frontier
        # saturates
        assert job.reports[0].frontier_bottom_up_scans == 0

    def test_empty_frontier_iteration_is_free(self):
        # hub of an in-star has no out-edges: the frontier empties after
        # iteration one, and an empty frontier reads nothing and
        # announces nothing
        graph = star(6, out=False)
        surfer = Surfer(graph, make_test_cluster(2), num_parts=2, seed=0)
        job = surfer.run_propagation(
            BreadthFirstSearchPropagation(), iterations=2, frontier=True
        )
        assert not job.failed
        assert job.result.tolist() == [0] + [-1] * 6
        last = job.reports[-1]
        assert last.frontier_active == 0
        assert last.frontier_exchange_bytes == 0
        assert last.messages_emitted == 0


# ----------------------------------------------------------------------
# Delta-PageRank's convergent tail vs dense NR (the >= 5x claim)
# ----------------------------------------------------------------------
class TestDeltaPageRankTail:
    def test_frontier_tail_ships_5x_fewer_messages_than_dense(self):
        # the delta_pr experiment gates the same comparison at the
        # same graph/seed
        graph = web_feeder_graph(core=32, feeders=480, seed=2010)
        surfer = _surfer(graph, parts=8)
        dpr = surfer.run_propagation(
            DeltaPageRankPropagation(), iterations=200,
            until_convergence=True, frontier=True, local_opts=False,
        )
        assert not dpr.failed
        iters = len(dpr.reports)
        nr = _surfer(graph, parts=8).run_propagation(
            NetworkRankingPropagation(), iterations=iters,
            local_opts=False,
        )
        dpr_msgs = sum(r.messages_shipped for r in dpr.reports)
        nr_msgs = sum(r.messages_shipped for r in nr.reports)
        assert nr_msgs >= 5 * dpr_msgs
        emitted_dpr = sum(r.messages_emitted for r in dpr.reports)
        emitted_nr = sum(r.messages_emitted for r in nr.reports)
        assert emitted_nr >= 5 * emitted_dpr

    def test_feeders_leave_frontier_after_first_iteration(self):
        graph = web_feeder_graph(core=32, feeders=480, seed=2010)
        job = _run("DPR", graph, frontier=True)
        actives = [r.frontier_active for r in job.reports]
        assert actives[0] == graph.num_vertices
        assert all(a <= 32 for a in actives[1:])


# ----------------------------------------------------------------------
# Fault tolerance in frontier mode
# ----------------------------------------------------------------------
class TestFrontierRecovery:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=4, community_size=32, seed=7
        )

    @pytest.mark.parametrize("app_name", sorted(TRAVERSAL_APPS))
    def test_restart_is_bit_identical(self, graph, app_name):
        baseline = _run(app_name, graph, frontier=True)
        assert not baseline.failed

        cls = TRAVERSAL_APPS[app_name][0]
        surfer = _surfer(_graph_for(app_name, graph))
        plan = FaultPlan().add_kill(surfer.store.primary(0), 1.0)
        job = surfer.run_propagation(
            cls(), iterations=100, until_convergence=True,
            frontier=True, fault_plan=plan,
            checkpoint=CheckpointPolicy(interval=1),
        )
        assert not job.failed
        assert job.restarts >= 1
        assert np.array_equal(baseline.result, job.result)
        assert reconcile(job) == []

    def test_chaos_sweep_recovery_invariant(self, graph):
        from repro.runtime.chaos import run_chaos_sweep

        surfer = _surfer(graph, replication=2)
        policy = CheckpointPolicy(interval=1, max_restarts=3)

        def run_job(surfer, plan):
            return surfer.run_propagation(
                BreadthFirstSearchPropagation(), iterations=100,
                until_convergence=True, frontier=True, fault_plan=plan,
                checkpoint=policy if plan is not None else None,
            )

        report = run_chaos_sweep(surfer, run_job, 6, seed=11)
        assert report.ok, report.summary()


# ----------------------------------------------------------------------
# Hash-salting determinism
# ----------------------------------------------------------------------
_FRONTIER_SNIPPET = """
import numpy as np
from repro.apps.traversal import ShortestPathsPropagation
from repro.core.surfer import Surfer
from repro.graph.generators import composite_social_graph
from tests.conftest import make_test_cluster

graph = composite_social_graph(num_communities=4, community_size=32,
                               seed=7)
surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
job = surfer.run_propagation(ShortestPathsPropagation(), iterations=100,
                             until_convergence=True, frontier=True)
print(np.asarray(job.result).tolist())
print(job.metrics.network_bytes, job.metrics.disk_bytes,
      int(job.events.metrics.get("frontier.exchange_bytes")),
      int(job.events.metrics.get("frontier.direction_switches")))
"""


class TestHashSeedDeterminism:
    def _output(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = (SRC_DIR + os.pathsep
                             + os.path.dirname(SRC_DIR)
                             + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", _FRONTIER_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
            cwd=os.path.dirname(SRC_DIR),
        )
        return proc.stdout

    def test_frontier_run_survives_hash_salting(self):
        assert self._output("0") == self._output("12345")


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
class _NoMaskApp(BreadthFirstSearchPropagation):
    name = "NOMASK"

    def frontier(self, state):
        return state.extra["active"].astype(np.int64)  # wrong dtype


class TestFrontierErrors:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=4, community_size=32, seed=7
        )

    def test_non_frontier_app_rejected(self, graph):
        surfer = _surfer(graph)
        with pytest.raises(JobError, match="frontier"):
            surfer.run_propagation(NetworkRankingPropagation(),
                                   iterations=1, frontier=True)

    def test_cascaded_frontier_rejected(self, graph):
        surfer = _surfer(graph)
        with pytest.raises(JobError, match="cascaded"):
            surfer.run_propagation(
                BreadthFirstSearchPropagation(), iterations=4,
                frontier=True, cascaded=True,
            )

    def test_bad_mask_dtype_rejected(self, graph):
        surfer = _surfer(graph)
        with pytest.raises(JobError, match="boolean mask"):
            surfer.run_propagation(_NoMaskApp(), iterations=2,
                                   frontier=True)

    def test_default_frontier_hook_raises(self):
        state = object()
        with pytest.raises(JobError, match="frontier"):
            NetworkRankingPropagation().frontier(state)
