"""RS and TFL on the array path, held to their scalar UDFs.

RS answers every array hook in both primitives: the acceptance coin
over a vertex column (:func:`~repro.apps.recommender.accepts_array`),
propagation's ``combine_array`` as a ``(values, present)`` mask, and
MapReduce's ``map_array`` / ``reduce_array`` under its 1-byte
``value_nbytes``, which both engines now size once per distinct value
(:func:`repro.fold.record_sizes`).  TFL finalizes to a
:class:`~repro.graph.digraph.Graph` whose row ``v`` is ``v``'s two-hop
friend list.  The scalar UDFs (``vectorized=False``) are the oracle:
results, reports, task spans and counters must be equal.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
    RecommenderMapReduce,
    RecommenderPropagation,
    TwoHopFriendsMapReduce,
    TwoHopFriendsPropagation,
)
from repro.apps.base import VertexState, rows_graph, sample_mask
from repro.apps.recommender import accepts, accepts_array
from repro.core.bandwidth_aware import PartitionPlan
from repro.core.surfer import Surfer
from repro.errors import ByteSizeError
from repro.fold import MESSAGE_HEADER, Ragged, Sizes, record_sizes
from repro.graph.algorithms import two_hop_neighbors
from repro.graph.digraph import Graph
from tests.conftest import make_test_cluster
from tests.test_properties import assert_same_job, raw_partitionings

DIFFERENTIAL = settings(max_examples=25, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


def plans_of(drawn):
    """The drawn graph under its index-set assignment and under the same
    assignment sorted (consecutive id ranges)."""
    edges, parts, k = drawn
    graph = Graph.from_edges(edges, num_vertices=parts.size)
    for assignment in (parts, np.sort(parts)):
        plan = PartitionPlan(parts=assignment, num_parts=k,
                             placement=np.arange(k) % 3, machine_sets={},
                             method="drawn")
        yield graph, Surfer(graph, make_test_cluster(3), plan=plan)


# ----------------------------------------------------------------------
# The scalar oracle vs the array path
# ----------------------------------------------------------------------
#: name -> (factory, scalar UDFs the array path must not call)
PROPAGATION = {
    "RS": (lambda: RecommenderPropagation(initial_ratio=0.5), ("combine",)),
    "TFL": (lambda: TwoHopFriendsPropagation(select_ratio=0.7),
            ("combine",)),
}
MAPREDUCE = {
    "RS": (lambda: RecommenderMapReduce(initial_ratio=0.5),
           ("map", "reduce")),
    "TFL": (lambda: TwoHopFriendsMapReduce(select_ratio=0.7),
            ("map", "reduce")),
}


def counted(cls, names):
    """Patches that count the calls of the scalar UDFs ``names``."""
    return [mock.patch.object(cls, name, autospec=True,
                              side_effect=getattr(cls, name))
            for name in names]


def run_counted(factory, names, launch):
    """``launch(app)`` with the app's scalar UDFs ``names`` counted;
    returns (job, calls)."""
    app = factory()
    patches = counted(type(app), names)
    mocks = [patch.start() for patch in patches]
    try:
        job = launch(app)
    finally:
        for patch in patches:
            patch.stop()
    return job, sum(m.call_count for m in mocks)


class TestArrayPathEqualsTheScalarUDFs:
    @pytest.mark.parametrize("name", PROPAGATION)
    @DIFFERENTIAL
    @given(raw_partitionings())
    def test_propagation(self, name, drawn):
        """Local optimizations on and off: ``vectorized=None`` calls no
        scalar ``combine`` and matches ``vectorized=False``."""
        factory, scalar_udfs = PROPAGATION[name]
        for _, surfer in plans_of(drawn):
            for local_opts in (True, False):
                oracle, fast = (
                    run_counted(factory, scalar_udfs,
                                lambda app, vec=vec: surfer.run_propagation(
                                    app, iterations=3, local_opts=local_opts,
                                    vectorized=vec))
                    for vec in (False, None))
                assert fast[1] == 0
                assert_same_job(oracle[0], fast[0])

    @pytest.mark.parametrize("name", MAPREDUCE)
    @DIFFERENTIAL
    @given(raw_partitionings())
    def test_mapreduce(self, name, drawn):
        """``vectorized=None`` calls no scalar ``map`` or ``reduce``
        (RS's typed flags are sized once per distinct value, not
        declined) and matches ``vectorized=False``."""
        factory, scalar_udfs = MAPREDUCE[name]
        for _, surfer in plans_of(drawn):
            oracle, fast = (
                run_counted(factory, scalar_udfs,
                            lambda app, vec=vec: surfer.run_mapreduce(
                                app, rounds=3, vectorized=vec))
                for vec in (False, None))
            assert fast[1] == 0
            assert_same_job(oracle[0], fast[0])

    def test_scalar_path_calls_the_udfs(self, small_graph):
        """The differential is not vacuous: ``vectorized=False`` does
        call the scalar UDFs the array path skips."""
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        for factory, names in PROPAGATION.values():
            _, calls = run_counted(factory, names, lambda app: surfer.run(
                app, 2, vectorized=False))
            assert calls > 0
        for factory, names in MAPREDUCE.values():
            _, calls = run_counted(factory, names, lambda app: surfer.run(
                app, 2, vectorized=False))
            assert calls > 0

    def test_rs_engines_agree(self, small_graph):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        prop = surfer.run(RecommenderPropagation(initial_ratio=0.1), 3)
        mr = surfer.run(RecommenderMapReduce(initial_ratio=0.1), 3)
        assert prop.result.dtype == mr.result.dtype == np.bool_
        assert np.array_equal(prop.result, mr.result)


# ----------------------------------------------------------------------
# The coin
# ----------------------------------------------------------------------
EXTREME_INTS = [0, 1, 7, -1, 2**31, 2**32 - 1, 2**32 + 5, 2**63 - 1,
                2**64 + 3, -2**64, -2**100, 2**100 + 17]


class TestArrayCoin:
    VERTICES = np.array([0, 1, 2, 5, 2**31, 2**32 + 1, 12_345_678_901,
                         2**62, 2**63 - 1], dtype=np.int64)

    @pytest.mark.parametrize("seed", EXTREME_INTS)
    @pytest.mark.parametrize("iteration", EXTREME_INTS)
    def test_extreme_seeds_and_iterations(self, seed, iteration):
        for probability in (0.0, 0.3, 0.5, 1.0):
            got = accepts_array(self.VERTICES, iteration, probability, seed)
            want = [accepts(int(v), iteration, probability, seed)
                    for v in self.VERTICES]
            assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=20),
           st.integers(), st.integers(), st.floats(0.0, 1.0))
    def test_any_ints(self, vertices, iteration, seed, probability):
        got = accepts_array(np.array(vertices, dtype=np.int64), iteration,
                            probability, seed)
        assert got.tolist() == [accepts(v, iteration, probability, seed)
                                for v in vertices]

    def test_negative_seed_runs(self, small_graph):
        """``accepts`` takes any int seed, and so does the initial
        adopter sample: a negative seed deploys and both paths agree."""
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        for cls in (RecommenderPropagation, RecommenderMapReduce):
            oracle, fast = (surfer.run(cls(seed=-1), 2, vectorized=vec)
                            for vec in (False, None))
            assert_same_job(oracle, fast)


class TestSampleMaskSeeds:
    @staticmethod
    def hashed_mask(n, ratio, seed):
        """The mask's formula over a seed in ``[0, 2**64)``."""
        ids = np.arange(n, dtype=np.uint64)
        hashed = ((ids + np.uint64(seed)) * np.uint64(2654435761)
                  ) & np.uint64(0xFFFFFFFF)
        return hashed < np.uint64(int(ratio * 0xFFFFFFFF))

    @pytest.mark.parametrize("seed", [-1, 2**32 + 5, 2**64 + 3, -2**70])
    def test_seed_is_taken_mod_2_64(self, seed):
        got = sample_mask(50, 0.5, seed)
        assert np.array_equal(got, self.hashed_mask(50, 0.5, seed % 2**64))

    @pytest.mark.parametrize("seed", [0, 7, 13, 2**32 + 5, 2**64 - 1])
    def test_in_range_seeds_keep_their_mask(self, seed):
        assert np.array_equal(sample_mask(50, 0.3, seed),
                              self.hashed_mask(50, 0.3, seed))


# ----------------------------------------------------------------------
# Sizing a column once
# ----------------------------------------------------------------------
def per_record(values, header, hook):
    return [header + hook(v) for v in values.tolist()]


class TestRecordSizes:
    def test_hook_called_once_per_distinct_value(self):
        calls = []

        def hook(value):
            calls.append(value)
            return 1.0

        values = np.array([True, False, True, True])
        sizes = record_sizes(values, MESSAGE_HEADER, hook)
        assert sorted(calls) == [False, True]
        assert sizes.total() == float(sum(per_record(values,
                                                     MESSAGE_HEADER,
                                                     lambda v: 1.0)))

    def test_distinct_by_bit_pattern(self):
        """``-0.0`` and ``0.0`` (and NaNs) are sized apart: the hook
        sees each record's own bits."""
        def hook(value):
            return 1.0 if math.copysign(1.0, value) > 0 else 3.0

        values = np.array([0.0, -0.0, 0.0, np.nan, -np.nan, 2.5])
        sizes = record_sizes(values, 8, hook)
        assert sizes.column.tolist() == per_record(values, 8, hook)

    @pytest.mark.parametrize("values", [
        np.array([3, 1, 3, 2, 1], dtype=np.int64),
        np.array([0.25, 0.5, 0.25, 1e300]),
        np.array([b"a", b"bb", b"a"]),
    ])
    def test_integer_sizes_sum_by_group(self, values):
        def hook(value):
            return float(len(value) if isinstance(value, bytes)
                         else 1 + (value > 0.3))

        sizes = record_sizes(values, 8, hook)
        assert sizes.column.dtype == np.float64
        groups = np.arange(values.size) % 2
        assert sizes.by(groups, 3).tolist() == [
            float(sum(s for s, g in zip(per_record(values, 8, hook), groups)
                      if g == want)) for want in range(3)]

    def test_non_integer_size_names_the_hook(self):
        """The cluster counts whole bytes: a fractional size is an
        error naming the hook, not a charge."""
        rng = np.random.default_rng(5)
        values = rng.random(1000)

        def hook(value):
            return 0.1 + (value > 0.5) * 0.2

        with pytest.raises(ByteSizeError, match="hook"):
            record_sizes(values, 8, hook)
        with pytest.raises(ByteSizeError, match="hook"):
            record_sizes(values.tolist(), 8, hook)
        with pytest.raises(ByteSizeError, match="hook"):
            record_sizes(values, 8, lambda value: math.nan)

    def test_default_and_ragged_sizes_are_closed_form(self):
        sizes = record_sizes(np.zeros(7), MESSAGE_HEADER)
        assert (sizes.column, sizes.each, sizes.total()) == (None, 16.0,
                                                             112.0)
        assert sizes.take(np.arange(7) < 3).total() == 48.0
        rows = Ragged.from_rows([(1, 2), (), (3,)])
        assert record_sizes(rows, MESSAGE_HEADER).total() == rows.nbytes(
            MESSAGE_HEADER)

    def test_sizes_of_rejects_sums_past_the_float_range(self):
        with pytest.raises(ByteSizeError, match="Hook.value_nbytes"):
            Sizes.of([2.0**52, 1.0], "Hook.value_nbytes")
        with pytest.raises(ByteSizeError, match="Hook.value_nbytes"):
            Sizes.of([math.inf], "Hook.value_nbytes")
        assert Sizes.of([2.0, 1.0], "Hook.value_nbytes").column.tolist() == [
            2.0, 1.0]


class FractionalNR(NetworkRankingPropagation):
    """NR whose messages cost a non-integer number of bytes."""

    name = "NR-fractional"

    def value_nbytes(self, value):
        return 0.1 if value < 0.001 else 0.3


class FractionalNRMapReduce(NetworkRankingMapReduce):
    """NR whose records cost a non-integer number of bytes."""

    name = "NR-fractional-mr"

    def value_nbytes(self, value):
        return 0.1 if value < 0.001 else 0.3


class FractionalKeysMapReduce(NetworkRankingMapReduce):
    """NR whose keys cost a non-integer number of bytes (sized per
    record)."""

    name = "NR-fractional-keys"

    def key_nbytes(self, key):
        return 4.5


class TestNonIntegerSizesAreRejected:
    """The cluster's traffic counters hold whole bytes, so a job whose
    sizing hook answers a fraction fails with the hook's name instead
    of charging bytes ``reconcile()`` cannot match."""

    @pytest.fixture
    def surfer(self, small_graph):
        return Surfer(small_graph, make_test_cluster(4), num_parts=8, seed=3)

    @pytest.mark.parametrize("vectorized", [None, False])
    def test_propagation_job_names_the_hook(self, surfer, vectorized):
        with pytest.raises(ByteSizeError,
                           match="FractionalNR.value_nbytes sized a record"):
            surfer.run(FractionalNR(), 1, vectorized=vectorized)

    @pytest.mark.parametrize("app, hook", [
        (FractionalNRMapReduce, "FractionalNRMapReduce.value_nbytes"),
        (FractionalKeysMapReduce,
         "FractionalKeysMapReduce.key_nbytes \\+ value_nbytes"),
    ], ids=["value_nbytes", "key_nbytes"])
    @pytest.mark.parametrize("vectorized", [None, False])
    def test_mapreduce_job_names_the_hook(self, surfer, app, hook,
                                          vectorized):
        with pytest.raises(ByteSizeError, match=hook):
            surfer.run(app(), 1, vectorized=vectorized)


# ----------------------------------------------------------------------
# TFL's result
# ----------------------------------------------------------------------
class TestTwoHopFriendsGraph:
    @DIFFERENTIAL
    @given(raw_partitionings())
    def test_every_vertex_is_two_hop_neighbors(self, drawn):
        for graph, surfer in plans_of(drawn):
            for cls in (TwoHopFriendsPropagation, TwoHopFriendsMapReduce):
                for vectorized in (None, False):
                    result = surfer.run(cls(select_ratio=1.0), 1,
                                        vectorized=vectorized).result
                    assert isinstance(result, Graph)
                    assert result.num_vertices == graph.num_vertices
                    for v in range(graph.num_vertices):
                        row = result.out_neighbors(v).tolist()
                        assert row == sorted(two_hop_neighbors(graph, v))


class TestRowsGraph:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(n)),
        st.lists(st.lists(st.integers(0, n - 1), max_size=6),
                 min_size=n, max_size=n),
        st.booleans())))
    def test_equals_the_sorted_edge_build(self, drawn):
        """Rows as the scalar paths leave them (any order, repeats) or
        as the array paths do (ascending, distinct), empty ones and a
        vertex subset included: the Graph is the deduplicated edge
        list's."""
        n, perm, rows, canonical = drawn
        if canonical:
            rows = [sorted(set(row)) for row in rows]
        keep = perm[:max(1, n // 2)]
        vertices = np.array(keep, dtype=np.int64)
        column = Ragged.from_rows([rows[v] for v in keep])
        state = VertexState(pgraph=SimpleNamespace(num_vertices=n),
                            values=(vertices, column))
        want = Graph.from_edges([(v, w) for v in keep for w in rows[v]],
                                num_vertices=n, dedup=True)
        assert rows_graph(state) == want


# ----------------------------------------------------------------------
# Ragged indices follow Python's rules
# ----------------------------------------------------------------------
class TestRaggedIndexing:
    ROWS = [(1, 2), (3,), (), (4, 5, 6)]

    def test_int_indices(self):
        column = Ragged.from_rows(self.ROWS)
        for i in range(-len(self.ROWS), len(self.ROWS)):
            assert tuple(column[i].tolist()) == self.ROWS[i]
            assert tuple(column[np.int64(i)].tolist()) == self.ROWS[i]
        assert Ragged.from_rows([(1, 2), (3,)])[-1].tolist() == [3]
        for bad in (4, -5):
            with pytest.raises(IndexError):
                column[bad]

    def test_take_wraps_negative_indices(self):
        column = Ragged.from_rows(self.ROWS)
        index = np.array([-1, 0, -4, 2, -3, -1])
        assert column.take(index).tolist() == [self.ROWS[i]
                                               for i in index.tolist()]
        assert column[index].tolist() == column.take(index).tolist()

    def test_take_out_of_range_raises(self):
        column = Ragged.from_rows(self.ROWS)
        for bad in ([-5], [4], [0, 9]):
            with pytest.raises(IndexError):
                column.take(np.array(bad))
