"""The destination index a dense propagation route holds per partition.

``PartitionedGraph.dest_index(p)`` is partition ``p``'s whole out-edge
column grouped by slot and split into inner, boundary-spill and
per-partition cross destinations, built at the partition's first dense
Transfer and held by the deployment.  Here: the index against its
definition on drawn graphs (index-set, range and shard-backed plans);
engine parity — one reused deployment runs dense, select-masked and
frontier jobs in any order, pooled and serial, and routing through the
held indexes gives what fresh per-iteration plans give, bit for bit;
and the guards — nothing per edge is held on a zero-copy partition, and
nothing is built by a deploy, a frontier job or a scalar job.
"""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    BreadthFirstSearchPropagation,
    KCoreDecompositionPropagation,
    NetworkRankingPropagation,
    ReverseLinkGraphPropagation,
    TwoHopFriendsPropagation,
)
from repro.core.bandwidth_aware import PartitionPlan
from repro.core.surfer import Surfer
from repro.fold import Grouping, Ragged, fold_by_dest
from repro.graph.digraph import Graph
from repro.propagation.engine import PropagationEngine
from tests.conftest import make_test_cluster
from tests.test_partition_pool import outcome, pooled
from tests.test_properties import raw_partitionings, shard_backed_graph
from tests.test_route_reference import ROUTED_APPS, assert_same

DRAWN = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def drawn_surfer(graph, parts, k):
    plan = PartitionPlan(parts=parts, num_parts=k,
                         placement=np.arange(k) % 3, machine_sets={},
                         method="drawn")
    return Surfer(graph, make_test_cluster(3), plan=plan)


def drawn_graphs(edges, n, tmp):
    """The drawn edge list in memory and as a two-shard store."""
    return (Graph.from_edges(edges, num_vertices=n),
            shard_backed_graph(edges, n, os.path.join(tmp, "store")))


def held_arrays(index):
    g = index.grouping
    return [a for a in (g.uniq, g.counts, g.index, g.occupied,
                        index.offsets, index.order, index.keys)
            if a is not None]


# ----------------------------------------------------------------------
# The index against its definition
# ----------------------------------------------------------------------
def assert_index_matches_definition(pg):
    """Per partition: the distinct destinations in route order (inner
    ascending, boundary spill ascending, cross by destination partition
    then id), the run bounds and offsets, each destination's edge count,
    each edge's row, and the held form: narrow, read-only, and nothing
    per edge unless the partition keeps its gathered edges."""
    P = pg.num_parts
    for p in range(P):
        index = pg.dest_index(p)
        g = index.grouping
        dst = pg.partition_dests(p)
        edges = dst.tolist()
        distinct = sorted(set(edges))
        inner = [v for v in distinct
                 if pg.parts[v] == p and not pg.boundary_mask[v]]
        spill = [v for v in distinct
                 if pg.parts[v] == p and pg.boundary_mask[v]]
        cross = sorted((int(pg.parts[v]), v) for v in distinct
                       if pg.parts[v] != p)
        assert g.uniq.tolist() == inner + spill + [v for _, v in cross]
        assert (index.inner, index.spill) == (len(inner),
                                              len(inner) + len(spill))
        per_part = np.bincount([q for q, _ in cross], minlength=P)
        assert index.offsets.tolist() == [0, *np.cumsum(per_part).tolist()]
        assert g.counts.tolist() == [edges.count(v) for v in g.uniq.tolist()]
        wide = g.at(dst)
        assert wide.uniq.dtype == dst.dtype and wide.counts.dtype == np.intp
        assert wide.uniq.tolist() == g.uniq.tolist()
        assert wide.uniq[wide.rank().index].tolist() == edges
        assert wide.fold(np.ones(dst.size), np.add).tolist() == (
            g.counts.astype(np.float64).tolist())
        assert index.order is None and index.keys is None
        for array in held_arrays(index):
            assert not array.flags.writeable
            assert array.dtype == np.min_scalar_type(
                int(array.max(initial=0))) or array is g.uniq
        assert g.uniq.dtype == np.min_scalar_type(pg.num_vertices - 1)
        if pg._edge_span(p) is not None:  # zero-copy: nothing per edge
            assert g.index is None and g.occupied is None
            assert all(a.size <= max(g.uniq.size, P + 1)
                       for a in held_arrays(index))
        else:
            assert g.index.size == dst.size and g.occupied is None
        assert pg.dest_index(p) is index


class TestIndexDefinition:
    @DRAWN
    @given(raw_partitionings())
    def test_drawn_graphs(self, drawn):
        """Self loops, duplicate edges, isolated vertices and empty
        partitions, in memory and shard-backed, under the drawn
        (index-set) assignment and its sorted (range) form."""
        edges, parts, k = drawn
        with tempfile.TemporaryDirectory() as tmp:
            for graph in drawn_graphs(edges, parts.size, tmp):
                for assignment in (parts, np.sort(parts)):
                    assert_index_matches_definition(
                        drawn_surfer(graph, assignment, k).pgraph)

    @pytest.mark.parametrize("sort", [False, True])
    def test_every_edge_crosses(self, sort):
        """Partition 0's edges all leave it (no inner or spill rows);
        partition 1 has no out-edges at all."""
        parts = np.array([0, 1, 0, 1, 0, 1])
        edges = [(0, 1), (0, 3), (2, 5), (4, 1), (4, 1), (2, 3)]
        if sort:  # the same graph with each partition a range
            relabel = {0: 0, 2: 1, 4: 2, 1: 3, 3: 4, 5: 5}
            edges = [(relabel[u], relabel[v]) for u, v in edges]
            parts = np.sort(parts)
        pg = drawn_surfer(Graph.from_edges(edges, num_vertices=6), parts,
                          2).pgraph
        assert_index_matches_definition(pg)
        index = pg.dest_index(0)
        assert index.inner == index.spill == 0
        assert index.offsets.tolist() == [0, 0, 3]
        assert pg.dest_index(1).grouping.uniq.size == 0

    def test_zero_copy_holds_nothing_per_edge(self):
        """Every edge five times over: a range partition's held arrays
        stay at its distinct destinations, far below its edges."""
        rng = np.random.default_rng(5)
        edges = np.repeat(rng.integers(0, 64, (200, 2)), 5, axis=0)
        parts = np.repeat(np.arange(4), 16)
        pg = drawn_surfer(Graph.from_edges(edges, num_vertices=64,
                                           dedup=False), parts, 4).pgraph
        assert_index_matches_definition(pg)
        for p in range(4):
            m_p = pg.partition_edge_count(p)
            assert pg._edge_span(p) is not None and m_p >= 200
            assert all(a.size < m_p for a in held_arrays(pg.dest_index(p)))


class TestHeldGroupingFolds:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(3, 40), min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    def test_every_form_folds_as_fold_by_dest(self, keys, rnd):
        """By slot, permuted, narrowed without its records and re-aimed
        at its keys, a grouping folds a float sum, an integer minimum
        and a ragged join as :func:`fold_by_dest` does, its groups in
        the permuted order."""
        keys = np.array(keys, dtype=np.int64)
        ranks = list(range(np.unique(keys).size))
        rnd.shuffle(ranks)
        order = np.array(ranks)
        held = Grouping(keys, by_slot=True).permuted(order).narrow(False)
        assert held.index is None and held.occupied is None
        grouping = held.at(keys)
        floats = np.arange(keys.size) / 7.0
        lists = Ragged.from_rows([(int(k),) * (i % 3)
                                  for i, k in enumerate(keys)])
        for values, ufunc in ((floats, np.add),
                              (keys * 3 - 50, np.minimum),
                              (lists, np.concatenate)):
            uniq, merged, counts = fold_by_dest(keys, values, ufunc)
            assert grouping.uniq.tolist() == uniq[order].tolist()
            assert grouping.counts.tolist() == counts[order].tolist()
            assert_same(grouping.fold(values, ufunc),
                        merged[order] if not isinstance(merged, Ragged)
                        else merged.take(order), "fold")


# ----------------------------------------------------------------------
# Held and fresh routes: the same jobs
# ----------------------------------------------------------------------
ROUTE = PropagationEngine._route_messages


def fresh_routes():
    """Every route builds its plan afresh, as before the index."""
    def route(engine, app, state, p, dst, values, scan_ops, plan=None):
        return ROUTE(engine, app, state, p, dst, values, scan_ops)
    return mock.patch.object(PropagationEngine, "_route_messages", route)


#: (app factory, run options): dense select-all, select-masked (TFL's
#: and RLG's selection, KCORE's active set) and frontier jobs
JOBS = [
    (NetworkRankingPropagation, {}),
    (ROUTED_APPS["NR-odd"], {}),
    (lambda: TwoHopFriendsPropagation(select_ratio=0.6), {}),
    (ReverseLinkGraphPropagation, {}),
    (KCoreDecompositionPropagation, {}),
    (lambda: BreadthFirstSearchPropagation(source=0), {"frontier": True}),
    (lambda: BreadthFirstSearchPropagation(source=0), {}),
    (ROUTED_APPS["RS"], {}),
]


def run_jobs(surfer, order, local_opts, workers):
    with pooled(workers=workers):
        return [outcome(lambda: surfer.run(JOBS[i][0](), 2,
                                           local_opts=local_opts,
                                           **JOBS[i][1]))
                for i in order]


def assert_same_outcomes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a[0] is False  # ran, and did not fail
        assert a[:-1] == b[:-1]
        assert_same(a[-1], b[-1], "result")


class TestHeldEqualsFresh:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings(), st.permutations(range(len(JOBS))),
           st.booleans(), st.sampled_from([0, 2]))
    def test_one_reused_deployment(self, drawn, order, local_opts,
                                   workers):
        """Jobs in a drawn order on one deployment that holds its
        indexes across them, against the same jobs with fresh plans on
        another: results, reports, spans, instants and metrics equal,
        pooled (two workers, gate 0) and serial."""
        edges, parts, k = drawn
        with tempfile.TemporaryDirectory() as tmp:
            for graph in drawn_graphs(edges, parts.size, tmp):
                for assignment in (parts, np.sort(parts)):
                    held = drawn_surfer(graph, assignment, k)
                    got = run_jobs(held, order, local_opts, workers)
                    with fresh_routes():
                        want = run_jobs(drawn_surfer(graph, assignment, k),
                                        order, local_opts, workers)
                    assert_same_outcomes(got, want)
                    assert bool(held.pgraph._dest_indexes) == local_opts

    def test_standard_graph(self, small_graph):
        def surfer():
            return Surfer(small_graph, make_test_cluster(4), num_parts=8,
                          seed=3)
        order = list(range(len(JOBS)))[::-1]
        deployed = surfer()
        got = run_jobs(deployed, order, True, 2)
        assert sorted(deployed.pgraph._dest_indexes) == list(range(8))
        with fresh_routes():
            want = run_jobs(surfer(), order, True, 2)
        assert_same_outcomes(got, want)


class TestNothingBuiltOffTheDensePath:
    def test_deploy_frontier_and_scalar_jobs(self, small_graph):
        """A deployment, a frontier job and every app's scalar job build
        no index; the first dense array-path job builds them all."""
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        held = surfer.pgraph._dest_indexes
        assert not held
        surfer.run(BreadthFirstSearchPropagation(source=0), 3,
                   frontier=True)
        assert not held
        for factory in ROUTED_APPS.values():
            surfer.run(factory(), 2, vectorized=False)
        assert not held
        surfer.run(NetworkRankingPropagation(), 1)
        assert sorted(held) == list(range(8))
