"""Property-based tests (hypothesis) on core data structures/invariants."""

import copy
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fold
from repro.apps import (
    BreadthFirstSearchPropagation,
    ConnectedComponentsPropagation,
    DegreeDistributionMapReduce,
    DeltaPageRankPropagation,
    KCoreDecompositionPropagation,
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
    RecommenderMapReduce,
    RecommenderPropagation,
    ReverseLinkGraphMapReduce,
    ReverseLinkGraphPropagation,
    ShortestPathsPropagation,
    TwoHopFriendsMapReduce,
    TwoHopFriendsPropagation,
)
from repro.core.bandwidth_aware import PartitionPlan
from repro.core.partitioned import PartitionedGraph, VertexEncoding
from repro.core.surfer import Surfer
from repro.errors import GraphError
from repro.fold import (
    COUNTING_SPAN_FACTOR,
    Grouping,
    Ragged,
    fold_by_dest,
    group_counting,
    group_ids,
    group_sorted,
)
from repro.graph.digraph import Graph, csr_from_keys, pair_keys
from repro.graph.store import build_shard_store, open_shard_graph
from repro.mapreduce.engine import _ShufflePlan
from repro.graph.io import (
    DEGREE_BYTES,
    VERTEX_ID_BYTES,
    read_edge_list,
    write_edge_list,
)
from repro.partitioning.coarsen import contract_matching
from repro.partitioning.matching import heavy_edge_matching
from repro.partitioning.metrics import (
    edge_cut,
    inner_edge_ratio,
    weighted_cut,
)
from repro.partitioning.refine import fm_refine
from repro.partitioning.wgraph import WGraph
from repro.runtime.events import reconcile
from tests.conftest import (
    AlternatingKeysMapReduce,
    ArrivalOrderApp,
    ArrivalOrderMapReduce,
    InPlaceKeysMapReduce,
    fold_strategy,
    fold_with,
    make_test_cluster,
    stream_from_edges,
    wgraph_is_symmetric,
)
from tests.partition_sketch import cut_matrix

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def graphs(draw, max_vertices=24, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m,
    ))
    return Graph.from_edges(edges, num_vertices=n, dedup=True,
                            drop_self_loops=True)


@st.composite
def partitioned_graphs(draw, max_parts=5):
    g = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=max_parts))
    parts = np.array(draw(st.lists(
        st.integers(0, k - 1), min_size=g.num_vertices,
        max_size=g.num_vertices,
    )), dtype=np.int64)
    return g, parts, k


@st.composite
def raw_partitionings(draw, max_vertices=14, max_edges=50, max_parts=6):
    """An edge list kept as drawn — self loops, duplicates, isolated
    vertices — and an assignment that may leave partitions empty."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    k = draw(st.integers(1, max_parts))
    parts = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                   max_size=n)), dtype=np.int64)
    return edges, parts, k


COMMON = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
class TestCsrKernel:
    @COMMON
    @given(st.integers(1, 9), st.integers(1, 9), st.data(), st.booleans())
    def test_matches_sorted_pairs(self, num_rows, num_cols, data, dedup):
        pairs = data.draw(st.lists(st.tuples(
            st.integers(0, num_rows - 1), st.integers(0, num_cols - 1)),
            max_size=40))
        rows = np.array([r for r, _ in pairs], dtype=np.int64)
        cols = np.array([c for _, c in pairs], dtype=np.int64)
        indptr, indices = csr_from_keys(
            pair_keys(rows, cols, num_rows, num_cols),
            num_rows, num_cols, dedup)
        assert indptr.dtype == indices.dtype == np.int64
        assert indptr.size == num_rows + 1 and indptr[0] == 0
        got = [(r, int(c)) for r in range(num_rows)
               for c in indices[indptr[r]:indptr[r + 1]]]
        assert got == sorted(set(pairs) if dedup else pairs)

    @COMMON
    @given(st.integers(1, 6), st.integers(1, 6), st.data(), st.booleans())
    def test_matches_sorted_key_multiset(self, num_rows, num_cols, data,
                                         dedup):
        # raw keys, not pairs: few distinct values, so all-equal arrays,
        # long runs of duplicates and sizes 0 / 1 all come up; one row
        # puts every key in a single indptr bucket
        keys = data.draw(st.lists(
            st.integers(0, num_rows * num_cols - 1), max_size=60))
        indptr, indices = csr_from_keys(
            np.array(keys, dtype=np.int64), num_rows, num_cols, dedup)
        want = sorted(set(keys)) if dedup else sorted(keys)
        got = [r * num_cols + int(c) for r in range(num_rows)
               for c in indices[indptr[r]:indptr[r + 1]]]
        assert got == want
        assert indptr[-1] == len(want) and np.all(np.diff(indptr) >= 0)

    @pytest.mark.parametrize("keys", [[], [3], [3, 3, 3, 3], [5, 0, 5, 0]])
    def test_degenerate_multisets(self, keys):
        arr = np.array(keys, dtype=np.int64)
        before = arr.copy()
        indptr, indices = csr_from_keys(arr, 1, 6, dedup=True)
        assert indices.tolist() == sorted(set(keys))
        assert indptr.tolist() == [0, len(set(keys))]
        assert csr_from_keys(arr, 1, 6)[1].tolist() == sorted(keys)
        # the caller's array is not sorted in place
        np.testing.assert_array_equal(arr, before)

    def test_no_rows_no_columns(self):
        empty = np.zeros(0, dtype=np.int64)
        indptr, indices = csr_from_keys(pair_keys(empty, empty, 0, 0), 0, 0)
        assert indptr.tolist() == [0] and indices.size == 0

    def test_key_overflow_is_an_error(self):
        empty = np.zeros(0, dtype=np.int64)
        pair_keys(empty, empty, 2**31, 2**31)
        with pytest.raises(GraphError, match="int64"):
            pair_keys(empty, empty, 2**32, 2**31)


class TestGraphProperties:
    @COMMON
    @given(graphs())
    def test_degree_sums_equal_edge_count(self, g):
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    @COMMON
    @given(graphs())
    def test_reverse_involution(self, g):
        assert g.reverse().reverse() == g

    @COMMON
    @given(graphs())
    def test_reverse_swaps_degrees(self, g):
        r = g.reverse()
        assert np.array_equal(r.out_degrees(), g.in_degrees())

    @COMMON
    @given(graphs())
    def test_serialization_roundtrips(self, g):
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        assert read_edge_list(buf, num_vertices=g.num_vertices) == g

    @COMMON
    @given(graphs())
    def test_undirected_view_symmetric(self, g):
        wg = WGraph.from_digraph(g)
        assert wgraph_is_symmetric(wg)

    @COMMON
    @given(graphs())
    def test_undirected_weight_preserves_edge_mass(self, g):
        """Total undirected weight equals the non-loop directed edges."""
        wg = WGraph.from_digraph(g)
        loops = sum(1 for u, v in g.iter_edges() if u == v)
        assert wg.eweights.sum() // 2 == g.num_edges - loops


# ----------------------------------------------------------------------
# Partitioning invariants
# ----------------------------------------------------------------------
class TestPartitioningProperties:
    @COMMON
    @given(partitioned_graphs())
    def test_cut_matrix_consistent_with_edge_cut(self, gp):
        g, parts, k = gp
        mat = cut_matrix(g, parts, k)
        assert mat.sum() == g.num_edges
        off_diagonal = mat.sum() - np.trace(mat)
        assert off_diagonal == edge_cut(g, parts)

    @COMMON
    @given(partitioned_graphs())
    def test_ier_bounds(self, gp):
        g, parts, k = gp
        assert 0.0 <= inner_edge_ratio(g, parts) <= 1.0

    @COMMON
    @given(graphs(), st.integers(0, 2**31 - 1))
    def test_matching_involution(self, g, seed):
        wg = WGraph.from_digraph(g)
        match = heavy_edge_matching(wg, np.random.default_rng(seed))
        assert np.array_equal(match[match], np.arange(wg.num_vertices))

    @COMMON
    @given(graphs(), st.integers(0, 2**31 - 1))
    def test_coarsening_preserves_cut(self, g, seed):
        wg = WGraph.from_digraph(g)
        rng = np.random.default_rng(seed)
        match = heavy_edge_matching(wg, rng)
        coarse, mapping = contract_matching(wg, match)
        coarse_side = rng.integers(0, 2, coarse.num_vertices)
        assert weighted_cut(coarse, coarse_side) == weighted_cut(
            wg, coarse_side[mapping]
        )

    @COMMON
    @given(graphs(), st.integers(0, 2**31 - 1))
    def test_fm_never_increases_cut(self, g, seed):
        wg = WGraph.from_digraph(g)
        if wg.num_vertices < 3:
            return
        rng = np.random.default_rng(seed)
        side = rng.integers(0, 2, wg.num_vertices)
        refined = fm_refine(wg, side)
        assert weighted_cut(wg, refined) <= weighted_cut(wg, side)


# ----------------------------------------------------------------------
# Partitioned graph / encoding invariants
# ----------------------------------------------------------------------
class TestEncodingProperties:
    @COMMON
    @given(partitioned_graphs())
    def test_encoding_bijective(self, gp):
        g, parts, k = gp
        enc = VertexEncoding(parts, k)
        assert sorted(enc.new_to_old.tolist()) == list(range(g.num_vertices))

    @COMMON
    @given(partitioned_graphs())
    def test_encoding_partition_lookup_matches(self, gp):
        g, parts, k = gp
        enc = VertexEncoding(parts, k)
        assert enc.offsets[0] == 0 and enc.offsets[-1] == g.num_vertices
        for p in range(k):
            owned = enc.new_to_old[enc.offsets[p]:enc.offsets[p + 1]]
            assert (parts[owned] == p).all()

    @COMMON
    @given(partitioned_graphs())
    def test_partition_edge_views_cover_graph(self, gp):
        g, parts, k = gp
        pg = PartitionedGraph(g, parts, k)
        total = sum(pg.partition_edge_count(p) for p in range(k))
        assert total == g.num_edges

    @COMMON
    @given(partitioned_graphs())
    def test_boundary_iff_incident_cross_edge(self, gp):
        g, parts, k = gp
        pg = PartitionedGraph(g, parts, k)
        for v in range(g.num_vertices):
            incident_cross = any(
                parts[v] != parts[u]
                for u in list(g.out_neighbors(v)) + list(g.in_neighbors(v))
            )
            assert bool(pg.boundary_mask[v]) == incident_cross


def assert_matches_oracle(pg, edges, parts, k):
    """Every ``PartitionedGraph`` accessor against the sorted edge list."""
    n = parts.size
    edges = sorted(edges)
    cross = [(u, v) for u, v in edges if parts[u] != parts[v]]
    assert pg.num_vertices == n and pg.num_parts == k
    assert pg.num_cross_edges == len(cross)
    assert pg.inner_edge_ratio == (
        1.0 - len(cross) / len(edges) if edges else 1.0)
    boundary = {x for e in cross for x in e}
    assert np.flatnonzero(pg.boundary_mask).tolist() == sorted(boundary)
    assert (np.flatnonzero(pg.entry_mask).tolist()
            == sorted({v for _, v in cross}))
    assert pg.inner_vertex_ratio == 1.0 - len(boundary) / n
    out_cross, in_cross = pg.cross_partition_counts()
    traffic = pg.cross_traffic_counts()
    assert pg.parts.tolist() == parts.tolist()
    for v in range(n):
        assert (not pg.boundary_mask[v]) == (v not in boundary)
    for p in range(k):
        verts = [v for v in range(n) if parts[v] == p]
        owned = [e for e in edges if parts[e[0]] == p]
        assert pg.partition_vertices[p].tolist() == verts
        assert pg.partition_size(p) == len(verts)
        assert pg.partition_edge_count(p) == len(owned)
        assert pg.partition_bytes(p) == (
            len(verts) * (VERTEX_ID_BYTES + DEGREE_BYTES)
            + len(owned) * VERTEX_ID_BYTES)
        for src, dst in (pg.partition_edges(p), pg.partition_out_edges(p)):
            assert list(zip(src.tolist(), dst.tolist())) == owned
        subset = verts[::-2]  # not ascending: scan order follows it
        src, dst = pg.partition_out_edges(p, np.array(subset, dtype=np.int64))
        assert list(zip(src.tolist(), dst.tolist())) == [
            e for u in subset for e in edges if e[0] == u]
        assert out_cross[p] == sum(parts[u] == p for u, _ in cross)
        assert in_cross[p] == sum(parts[v] == p for _, v in cross)
        for q in range(k):
            assert traffic[p, q] == sum(
                parts[u] == p and parts[v] == q for u, v in cross)
    assert sum(v.size for v in pg.partition_vertices) == n
    assert sum(pg.partition_edge_count(p) for p in range(k)) == len(edges)


class TestPartitionedGraphOracle:
    @COMMON
    @given(raw_partitionings())
    def test_accessors_match_brute_force(self, drawn):
        """Index-set partitions, consecutive-id partitions and the
        Appendix B relabeling of one into the other all answer alike."""
        edges, parts, k = drawn
        g = Graph.from_edges(edges, num_vertices=parts.size)
        pg = PartitionedGraph(g, parts, k)
        assert_matches_oracle(pg, edges, parts, k)
        # the same graph cut into consecutive id ranges
        ranges = np.sort(parts)
        assert_matches_oracle(PartitionedGraph(g, ranges, k), edges,
                              ranges, k)
        # the same partitioning after relabeling ids into ranges
        enc = pg.encoding()
        old_to_new = np.empty_like(enc.new_to_old)
        old_to_new[enc.new_to_old] = np.arange(parts.size)
        relabeled = [(int(old_to_new[u]), int(old_to_new[v]))
                     for u, v in edges]
        rg = PartitionedGraph(
            Graph.from_edges(relabeled, num_vertices=parts.size), ranges, k)
        assert_matches_oracle(rg, relabeled, ranges, k)
        for ours, theirs in zip(pg.cross_partition_counts(),
                                rg.cross_partition_counts()):
            np.testing.assert_array_equal(ours, theirs)
        np.testing.assert_array_equal(pg.cross_traffic_counts(),
                                      rg.cross_traffic_counts())
        np.testing.assert_array_equal(pg.boundary_mask,
                                      rg.boundary_mask[old_to_new])
        for p in range(k):
            assert pg.partition_bytes(p) == rg.partition_bytes(p)


# ----------------------------------------------------------------------
# Network-model invariants
# ----------------------------------------------------------------------
class TestNetworkProperties:
    @COMMON
    @given(
        st.lists(st.tuples(st.integers(1, 7),
                           st.floats(0.0, 1e6, allow_nan=False)),
                 max_size=12),
        st.floats(1.0, 1e6, allow_nan=False),
    )
    def test_flows_time_nonnegative_and_nic_bounded_below(self, flows, nic):
        from repro.cluster.network import NetworkModel, StageConstraints
        from repro.cluster.topology import t2

        net = NetworkModel(t2(2, 1, 8, link_bps=100.0))
        stage = StageConstraints(net.topology, [(0, p) for p, __ in flows])
        t = net.flows_time(0, flows, nic, stage)
        total = sum(b for __, b in flows)
        assert t >= total / nic - 1e-9
        assert t >= 0.0

    @COMMON
    @given(
        st.lists(st.tuples(st.integers(1, 7),
                           st.floats(0.0, 1e6, allow_nan=False)),
                 min_size=1, max_size=8),
    )
    def test_flows_time_monotone_in_bytes(self, flows):
        from repro.cluster.network import NetworkModel, StageConstraints
        from repro.cluster.topology import t2

        net = NetworkModel(t2(2, 1, 8, link_bps=100.0))
        stage = StageConstraints(net.topology, [(0, p) for p, __ in flows])
        base = net.flows_time(0, flows, 50.0, stage)
        bigger = [(peer, b * 2) for peer, b in flows]
        assert net.flows_time(0, bigger, 50.0, stage) >= base - 1e-9

    @COMMON
    @given(st.integers(0, 7), st.integers(0, 7))
    def test_effective_bandwidth_never_exceeds_link(self, a, b):
        from repro.cluster.network import StageConstraints
        from repro.cluster.topology import t2

        topo = t2(2, 1, 8, link_bps=100.0)
        if a != b:
            alone = StageConstraints(topo, [(a, b)])[a, b][0]
            assert alone <= 100.0
            # the table's pair bandwidth is the fully contended worst case
            assert topo.bandwidth(a, b) <= alone

    @COMMON
    @given(st.integers(1, 6))
    def test_fair_share_decreases_with_users(self, extra_users):
        from repro.cluster.network import StageConstraints
        from repro.cluster.topology import t2

        topo = t2(2, 1, 8, link_bps=100.0)
        # machines 0..3 form pod 0; each extra sender joins its uplink
        few = StageConstraints(topo, [(0, 4)])
        many = StageConstraints(topo, [(m, 4) for m in
                                       range(min(extra_users, 3) + 1)])
        assert many[0, 4][0] <= few[0, 4][0] + 1e-9


# ----------------------------------------------------------------------
# The fold kernel: both strategies against a Python left fold
# ----------------------------------------------------------------------
@st.composite
def message_columns(draw):
    """``(dests, raw values)``: none, one or many messages over one
    destination, a dense id range or a huge sparse span."""
    k = draw(st.integers(0, 40))
    span = draw(st.sampled_from([1, 6, 64, 2**40]))
    base = draw(st.integers(0, 2**20))
    dests = draw(st.lists(st.integers(base, base + span - 1),
                          min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                        min_size=k, max_size=k))
    return np.array(dests, dtype=np.int64), np.array(raw)


class TestFoldKernel:
    @pytest.mark.parametrize("ufunc, dtype, merge", [
        (np.add, np.float64, lambda a, b: a + b),
        (np.minimum, np.int64, min),
        (np.logical_or, np.bool_, lambda a, b: a or b),
    ], ids=["add-float64", "minimum-int64", "logical_or-bool"])
    @COMMON
    @given(message_columns())
    def test_strategies_equal_python_left_fold(self, ufunc, dtype, merge,
                                               drawn):
        dests, raw = drawn
        values = (raw > 0) if dtype is np.bool_ else raw.astype(dtype)
        folded: dict = {}
        sizes: dict = {}
        for d, v in zip(dests.tolist(), values.tolist()):
            folded[d] = merge(folded[d], v) if d in folded else v
            sizes[d] = sizes.get(d, 0) + 1
        results = [fold_by_dest(dests, values, ufunc)]
        if dests.size:  # the forced strategies take non-empty input
            results.append(fold_with("sorted", dests, values, ufunc))
            if np.ptp(dests) < 2**20:  # counting allocates the span
                results.append(fold_with("counting", dests, values, ufunc))
        for uniq, merged, counts in results:
            assert uniq.tolist() == sorted(folded)
            assert merged.tolist() == [folded[d] for d in sorted(folded)]
            assert counts.tolist() == [sizes[d] for d in sorted(folded)]
            assert uniq.dtype == dests.dtype and merged.dtype == dtype

    def test_choice_follows_count_and_span(self, monkeypatch):
        """Counting while the span stays within a small multiple of the
        message count, the sort beyond it — nothing else decides, and
        the grouping and the fold decide alike."""
        chosen = []
        for name in ("group_counting", "group_sorted"):
            real = getattr(repro.fold, name)
            monkeypatch.setattr(
                repro.fold, name,
                lambda keys, *low, name=name, real=real: (
                    chosen.append(name), real(keys, *low))[1])
        ones = np.ones(10)
        for span in (1, 10, 10 * COUNTING_SPAN_FACTOR,
                     10 * COUNTING_SPAN_FACTOR + 1, 2**40):
            dests = np.zeros(10, dtype=np.int64)
            dests[-1] = span - 1
            group_ids(dests)
            fold_by_dest(dests, ones, np.add)
        group_ids(np.array([b"a", b"b"]))
        fold_by_dest(np.array([b"a", b"b"]), ones[:2], np.add)
        # a counting fold folds by slot and never calls group_counting
        assert chosen == ["group_counting"] * 3 + ["group_sorted"] * 6


@st.composite
def ragged_messages(draw):
    """``(dests, rows)``: none, one or many id-list messages, empty rows
    among them, ids repeated within and across rows."""
    k = draw(st.integers(0, 30))
    dests = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(st.integers(0, 9), max_size=5),
                         min_size=k, max_size=k))
    return np.array(dests, dtype=np.int64), rows


class TestRaggedFold:
    @pytest.mark.parametrize("ufunc, as_value, merge", [
        (np.concatenate, tuple, lambda a, b: a + b),
        (np.union1d, frozenset, lambda a, b: a | b),
    ], ids=["concatenate-tuples", "union1d-frozensets"])
    @COMMON
    @given(ragged_messages())
    def test_equals_python_left_fold(self, ufunc, as_value, merge, drawn):
        dests, rows = drawn
        folded: dict = {}
        sizes: dict = {}
        for d, row in zip(dests.tolist(), rows):
            value = as_value(row)
            folded[d] = merge(folded[d], value) if d in folded else value
            sizes[d] = sizes.get(d, 0) + 1
        column = Ragged.from_rows(rows)
        results = [fold_by_dest(dests, column, ufunc)]
        if dests.size:  # the forced strategies take non-empty input
            results += [fold_with(strategy, dests, column, ufunc)
                        for strategy in ("sorted", "counting")]
        want = sorted(folded)
        for uniq, merged, counts in results:
            assert uniq.tolist() == want
            assert counts.tolist() == [sizes[d] for d in want]
            got = merged.tolist()
            if as_value is tuple:
                assert got == [folded[d] for d in want]
            else:  # a union lists each id once, ascending
                assert got == [tuple(sorted(folded[d])) for d in want]

    @COMMON
    @given(ragged_messages(), st.data())
    def test_column_operations_equal_list_operations(self, drawn, data):
        _, rows = drawn
        column = Ragged.from_rows(rows)
        listed = [tuple(row) for row in rows]
        assert column.tolist() == listed
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                           max_size=len(rows))), dtype=bool)
        assert column[mask].tolist() == [r for r, m in zip(listed, mask)
                                         if m]
        index = np.array(data.draw(st.lists(
            st.integers(0, max(len(rows) - 1, 0)),
            max_size=8 if rows else 0)), dtype=np.intp)
        assert column[index].tolist() == [listed[i] for i in index]
        cut = data.draw(st.integers(0, len(rows)))
        assert column[cut:].tolist() == listed[cut:]
        joined = np.concatenate([column[:cut], column[cut:]])
        assert joined.tolist() == listed
        assert column.nbytes(VERTEX_ID_BYTES) == sum(
            VERTEX_ID_BYTES + 8 * len(row) for row in rows)


class TestGrouping:
    @COMMON
    @given(message_columns(), st.data())
    def test_one_grouping_folds_like_fresh_folds(self, drawn, data):
        """One grouping — either strategy, ranked or not, narrowed or
        not — folds several value columns, ragged ones included, each
        exactly as a fresh ``fold_by_dest`` of that column."""
        dests, raw = drawn
        rows = data.draw(st.lists(st.lists(st.integers(0, 9), max_size=4),
                                  min_size=dests.size,
                                  max_size=dests.size))
        columns = [(raw, np.add), (raw.astype(np.int64), np.minimum),
                   (raw > 0, np.logical_or),
                   (Ragged.from_rows(rows), np.concatenate),
                   (Ragged.from_rows(rows), np.union1d)]
        fresh = [fold_by_dest(dests, values, ufunc)
                 for values, ufunc in columns]
        strategies = ["sorted"]
        if dests.size and np.ptp(dests) < 2**20:  # counting allocates it
            strategies.append("counting")
        for strategy in strategies:
            for ranked in (False, True):
                with fold_strategy(strategy):
                    built = Grouping(dests, ranked=ranked)
                for grouping in (built, built.narrow()):
                    for (values, ufunc), (uniq, merged, counts) in zip(
                            columns, fresh):
                        assert grouping.uniq.tobytes() == uniq.tobytes()
                        assert grouping.counts.tolist() == counts.tolist()
                        got = grouping.fold(values, ufunc)
                        if isinstance(got, Ragged):
                            assert got.tolist() == merged.tolist()
                        else:
                            assert got.dtype == merged.dtype
                            assert got.tobytes() == merged.tobytes()

    def test_held_grouping_is_read_only_and_shared_by_copies(self):
        grouping = Grouping(np.array([3, 1, 3, 2])).narrow()
        for array in (grouping.uniq, grouping.counts, grouping.index):
            with pytest.raises(ValueError):
                array[0] = 0
        assert copy.copy(grouping) is grouping
        assert copy.deepcopy({"plan": grouping})["plan"] is grouping

    def test_fold_rejects_misaligned_values(self):
        with pytest.raises(ValueError):
            Grouping(np.array([1, 2])).fold(np.ones(3), np.add)


@st.composite
def key_columns(draw):
    """Integer keys: none, one or many, negative or past ``2**63``, in a
    narrow dtype, over a dense range or a huge span."""
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.int8]))
    info = np.iinfo(dtype)
    k = draw(st.integers(0, 40))
    base = draw(st.integers(int(info.min), int(info.max)))
    span = min(draw(st.sampled_from([1, 6, 64, 2**40])),
               int(info.max) - base + 1)
    keys = draw(st.lists(st.integers(base, base + span - 1),
                         min_size=k, max_size=k))
    return np.array(keys, dtype=dtype)


class TestGroupIds:
    @COMMON
    @given(key_columns())
    def test_strategies_equal_dict_group_by(self, keys):
        positions: dict = {}
        for j, key in enumerate(keys.tolist()):
            positions.setdefault(key, []).append(j)
        want = sorted(positions)
        results = [group_ids(keys)]
        if keys.size:  # the strategies take non-empty input
            results.append(group_sorted(keys))
            if int(keys.max()) - int(keys.min()) < 2**20:
                results.append(group_counting(keys, keys.min()))
        for uniq, gid, counts in results:
            assert uniq.dtype == keys.dtype and gid.dtype == np.intp
            assert uniq.tolist() == want
            assert counts.tolist() == [len(positions[key]) for key in want]
            # records stay put: group i's positions, in input order
            assert [np.flatnonzero(gid == i).tolist()
                    for i in range(uniq.size)] == [positions[key]
                                                   for key in want]

    @pytest.mark.parametrize("keys", [
        np.zeros(0, dtype=np.uint64), np.array([-3]),
        np.array([2**64 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
        np.array([127, -128, 0, 127], dtype=np.int8)])
    def test_edge_cases(self, keys):
        uniq, gid, counts = group_ids(keys)
        assert uniq.dtype == keys.dtype
        assert uniq.tolist() == sorted(set(keys.tolist()))
        assert uniq[gid].tolist() == keys.tolist()
        assert counts.sum() == keys.size


class TestShufflePlan:
    @COMMON
    @given(key_columns(), st.booleans(), st.integers(1, 5), st.data())
    def test_held_keys_reproduce_exactly(self, keys, combiner,
                                         num_reducers, data):
        """A plan matches its own keys — as a fresh array — and no
        others: a changed record, a changed dtype, length, combiner
        mode or reducer count each rebuild it.  Its shuffled keys come
        back exactly."""
        plan = _ShufflePlan.build(keys, combiner, num_reducers)
        assert plan.matches(keys.copy(), combiner, num_reducers)
        shuffled = plan.combine.uniq if combiner else keys
        assert plan.sorted_keys().tobytes() == shuffled[
            plan.permutation()].tobytes()
        assert not plan.matches(keys, not combiner, num_reducers)
        assert not plan.matches(keys, combiner, num_reducers + 1)
        if keys.size:
            assert not plan.matches(keys[:-1], combiner, num_reducers)
            changed = keys.copy()
            at = data.draw(st.integers(0, keys.size - 1))
            changed[at] ^= 1
            assert not plan.matches(changed, combiner, num_reducers)
            assert not plan.matches(keys.astype(np.float64), combiner,
                                    num_reducers)


# ----------------------------------------------------------------------
# The scalar oracle vs the array path: differential matrix
# ----------------------------------------------------------------------
#: every app with ``transfer_array``: (factory, deploy on the symmetrized
#: graph).  NR/CC/BFS/SSSP/DPR/RS are columnar end to end (RS's
#: ``combine_array`` answers a mask where ``combine`` may answer None);
#: KCORE (``combine`` reads its neighbours) takes the bag fallback after
#: the array Transfer.
ARRAY_APPS = {
    "NR": (NetworkRankingPropagation, False),
    "CC": (ConnectedComponentsPropagation, True),
    "RS": (lambda: RecommenderPropagation(initial_ratio=0.5), False),
    "BFS": (BreadthFirstSearchPropagation, False),
    "SSSP": (ShortestPathsPropagation, False),
    "KCORE": (KCoreDecompositionPropagation, True),
    "DPR": (DeltaPageRankPropagation, False),
    # ragged values: one-id rows joined, friend lists united
    "RLG": (ReverseLinkGraphPropagation, False),
    "TFL": (TwoHopFriendsPropagation, False),
    "TFL-half": (lambda: TwoHopFriendsPropagation(select_ratio=0.5), False),
    # test-only: makes the arrival order itself observable
    "ORDER": (ArrivalOrderApp, False),
}


def sim_counters(job):
    """Registry counters minus the real-wall ones."""
    return {name: value
            for name, value in job.events.metrics.counters.items()
            if "wall" not in name}


def same_result(a, b):
    """Bitwise for arrays; ``==`` for dicts and graphs."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


def assert_same_job(oracle, fast):
    assert not oracle.failed and not fast.failed
    assert same_result(oracle.result, fast.result)
    assert oracle.reports == fast.reports  # every field, every stage
    assert oracle.events.task_spans() == fast.events.task_spans()
    assert oracle.metrics == fast.metrics
    assert sim_counters(oracle) == sim_counters(fast)
    assert reconcile(oracle) == [] and reconcile(fast) == []


class TestArrayPathDifferential:
    @pytest.mark.parametrize("name", ARRAY_APPS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings())
    def test_vectorized_equals_scalar(self, name, drawn):
        """``vectorized=True`` against ``vectorized=False`` on raw edge
        lists (self-loops, duplicates, degree-0 vertices, empty
        partitions), as index-set parts and as sorted-range parts, with
        local optimizations on and off, dense and — where the app keeps
        a frontier — sparse."""
        edges, parts, k = drawn
        factory, symmetrize = ARRAY_APPS[name]
        graph = Graph.from_edges(edges, num_vertices=parts.size)
        if symmetrize:
            graph = graph.symmetrized()
        cluster = make_test_cluster(3)
        modes = (False, True) if factory().uses_frontier else (False,)
        for assignment in (parts, np.sort(parts)):
            plan = PartitionPlan(parts=assignment, num_parts=k,
                                 placement=np.arange(k) % 3,
                                 machine_sets={}, method="drawn")
            surfer = Surfer(graph, cluster, plan=plan)
            for local_opts in (True, False):
                for frontier in modes:
                    oracle, fast = (
                        surfer.run_propagation(
                            factory(), iterations=3, local_opts=local_opts,
                            frontier=frontier, vectorized=vectorized)
                        for vectorized in (False, True))
                    assert_same_job(oracle, fast)


#: every MapReduce app with ``map_array``: (factory, has ``combine``).
#: NR, RS, RLG and TFL are columnar into ``update_array`` (RLG and TFL
#: with ragged values, RS with a sized ``value_nbytes``); VDD and ORDER
#: override ``update`` alone and are handed the round's dict.
MR_ARRAY_APPS = {
    "NR": (NetworkRankingMapReduce, True),
    "RS": (lambda: RecommenderMapReduce(initial_ratio=0.5), False),
    "NR-naive": (lambda: NetworkRankingMapReduce(in_map_combining=False),
                 True),
    "VDD": (DegreeDistributionMapReduce, True),
    "RLG": (ReverseLinkGraphMapReduce, False),
    "TFL": (TwoHopFriendsMapReduce, False),
    "TFL-half": (lambda: TwoHopFriendsMapReduce(select_ratio=0.5), False),
    # test-only: reduce emits its bag in shuffle arrival order
    "ORDER": (ArrivalOrderMapReduce, False),
    # test-only: round-dependent keys, so held shuffle plans go stale —
    # a key set that alternates on half the partitions, and a key array
    # shifted in place and returned again
    "ALT": (AlternatingKeysMapReduce, True),
    "INPLACE": (InPlaceKeysMapReduce, True),
}


def shard_backed_graph(edges, num_vertices, path):
    """The drawn edge list, kept as drawn, as a two-shard store."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    build_shard_store(stream_from_edges(pairs, num_vertices), path, 2,
                      dedup=False, drop_self_loops=False)
    return open_shard_graph(path)


class TestMapReduceArrayDifferential:
    @pytest.mark.parametrize("name", MR_ARRAY_APPS)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings())
    def test_columnar_equals_scalar(self, name, drawn):
        """``vectorized=True`` against ``vectorized=False`` on raw edge
        lists (self-loops, duplicates, isolated vertices, empty
        partitions), with the combiner on and off where the app has
        one, as index-set and sorted-range parts, in memory and
        shard-backed.  Three rounds: whatever the engine and NR plan in
        the first is replayed — or found stale and rebuilt — twice."""
        edges, parts, k = drawn
        factory, has_combine = MR_ARRAY_APPS[name]
        cluster = make_test_cluster(3)
        with tempfile.TemporaryDirectory() as tmp:
            graphs = (Graph.from_edges(edges, num_vertices=parts.size),
                      shard_backed_graph(edges, parts.size,
                                         os.path.join(tmp, "store")))
            for graph in graphs:
                for assignment in (parts, np.sort(parts)):
                    plan = PartitionPlan(parts=assignment, num_parts=k,
                                         placement=np.arange(k) % 3,
                                         machine_sets={}, method="drawn")
                    surfer = Surfer(graph, cluster, plan=plan)
                    for combiner in (False, True)[:1 + has_combine]:
                        oracle, fast = (
                            surfer.run_mapreduce(
                                factory(), rounds=3, combiner=combiner,
                                vectorized=vectorized)
                            for vectorized in (False, True))
                        assert_same_job(oracle, fast)
