"""The fold-once route against the per-message route.

With local optimizations an associative app's column folds once by
destination in ``PropagationEngine._route_messages``, and the
inner/boundary/cross masks split its distinct destinations; the folded
inner slice goes to ``combine_array`` where the app has one, else the
inner messages go to the scalar ``combine``.  This module keeps the
route that preceded it — masks and gathers per message, local
propagation over the inner messages, the spill and the cross set merged
apart — as the reference, and checks every partition's route of every
job against it: each :class:`_PartitionTransfer` field, columns by
dtype and bits, floats by their bits.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import (
    BreadthFirstSearchPropagation,
    ConnectedComponentsPropagation,
    DegreeDistributionPropagation,
    DeltaPageRankPropagation,
    KCoreDecompositionPropagation,
    NetworkRankingPropagation,
    RecommenderPropagation,
    ReverseLinkGraphPropagation,
    TriangleCountingPropagation,
    TwoHopFriendsPropagation,
)
from repro.bench.workloads import make_cluster, topology_by_name
from repro.core.bandwidth_aware import PartitionPlan
from repro.core.range_plan import contiguous_range_plan
from repro.core.surfer import Surfer
from repro.fold import (
    RECORD_HEADER,
    Grouping,
    Ragged,
    bags,
    fold_by_dest,
    is_typed,
)
from repro.graph.digraph import Graph
from repro.graph.store import build_shard_store, open_shard_graph
from repro.graph.stream import stream_rmat
from repro.propagation.api import PropagationApp
from repro.propagation.engine import (
    PropagationEngine,
    _PartitionTransfer,
    _wire_bytes,
)
from tests.conftest import make_test_cluster
from tests.test_properties import raw_partitionings


# ----------------------------------------------------------------------
# The per-message route
# ----------------------------------------------------------------------
def reference_combine(app, state, dests, values):
    """Local propagation of the inner messages: one fold and one
    ``combine_array`` call for a typed column of an app with both hooks,
    else (or when the hook declines) the scalar ``combine`` over each
    destination's bag; (outputs, cpu ops, output bytes), output bytes
    summed per output."""
    if (type(app).combine_array is not PropagationApp.combine_array
            and app.merge_ufunc is not None and is_typed(values)):
        vertices, folded, counts = fold_by_dest(dests, values,
                                                app.merge_ufunc)
        out = app.combine_array(vertices, folded, counts, state)
        if out is not None:
            if isinstance(out, Ragged):
                nbytes = out.nbytes(RECORD_HEADER)
            else:
                out = np.asarray(out)
                nbytes = float(sum(
                    app.result_nbytes(v, o)
                    for v, o in zip(vertices.tolist(), out.tolist())))
            return (vertices, out), float(dests.size + vertices.size), nbytes
    grouping = Grouping(dests, ranked=True)
    combined = {}
    nbytes = 0.0
    for v, bag in zip(grouping.uniq.tolist(), bags(grouping, values)):
        result = app.combine(v, bag, state)
        if result is not None:
            combined[v] = result
            nbytes += app.result_nbytes(v, result)
    return combined, float(dests.size + grouping.uniq.size), nbytes


def reference_route(engine, app, state, p, dst, values, scan_ops):
    """Partition ``p``'s column routed message by message."""
    pg = engine.pgraph
    result = _PartitionTransfer()
    m = int(dst.size)
    result.messages = m
    result.cpu_ops = scan_ops + m
    merge = None
    if engine.local_opts and app.is_associative:
        merge = (app.merge_ufunc
                 if is_typed(values) and app.merge_ufunc is not None
                 else app.merge)

    dest_parts = engine._dest_parts(app, dst)
    local = dest_parts == p
    cross = ~local
    if engine.local_opts and not app.uses_virtual_vertices:
        inner = local & ~pg.boundary_mask[dst]
        local &= ~inner
        result.inner_out, cpu_ops, result.output_bytes = reference_combine(
            app, state, dst[inner], values[inner])
        result.inner_seen = np.unique(dst[inner])  # the vertices visited
        result.cpu_ops += cpu_ops
        result.locally_propagated = int(result.inner_seen.size)

    dests, vals = dst[local], values[local]
    if merge is not None:
        dests, vals, _ = fold_by_dest(dests, vals, merge)
    result.local = (dests, vals)
    result.spill_bytes = _wire_bytes(app, vals)

    dests, vals = dst[cross], values[cross]
    if merge is not None:
        result.cpu_ops += float(dests.size)
        dests, vals, _ = fold_by_dest(dests, vals, merge)
        dest_parts = engine._dest_parts(app, dests)
    else:
        dest_parts = dest_parts[cross]
    order = np.argsort(dest_parts, kind="stable")
    dests, vals = dests[order], vals[order]
    per_part = np.bincount(dest_parts, minlength=pg.num_parts)
    offsets = np.zeros(pg.num_parts + 1, dtype=np.intp)
    np.cumsum(per_part, out=offsets[1:])
    result.cross = (dests, vals)
    result.cross_offsets = offsets
    result.shipped = int(dests.size)
    result.send_bytes = {
        int(q): _wire_bytes(app, vals[offsets[q]:offsets[q + 1]])
        for q in np.flatnonzero(per_part)
    }
    return result


def _canonical(value):
    """A scalar output or message as both routes must agree on it:
    floats by their bits, containers element by element."""
    if isinstance(value, float):
        return (type(value), value.hex())
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_canonical(v) for v in value)
    return type(value), value


def assert_same(got, want, where):
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        if want.dtype == object:
            assert ([_canonical(v) for v in got.tolist()]
                    == [_canonical(v) for v in want.tolist()]), where
        else:
            assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, Ragged):
        assert_same(got.offsets, want.offsets, f"{where}.offsets")
        assert_same(got.flat, want.flat, f"{where}.flat")
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert list(got) == list(want), where  # insertion order too
        for key in want:
            assert_same(got[key], want[key], f"{where}[{key!r}]")
    else:
        assert _canonical(got) == _canonical(want), where


def assert_same_transfer(got, want):
    for f in dataclasses.fields(_PartitionTransfer):
        assert_same(getattr(got, f.name), getattr(want, f.name), f.name)


ROUTE = PropagationEngine._route_messages


@contextmanager
def checked_routes():
    """Every route of the jobs run inside, checked against the
    per-message route on the same column; yields how many routes there
    were and how often their folded inner slice was answered and
    declined by ``combine_array``."""
    seen = {"routes": 0, "answered": 0, "declined": 0}
    combine_folded = PropagationEngine._combine_folded

    def counted(*args):
        answered = combine_folded(*args)
        seen["answered" if answered is not None else "declined"] += 1
        return answered

    def route(engine, app, state, p, dst, values, scan_ops):
        seen["routes"] += 1
        with mock.patch.object(engine, "_combine_folded", counted):
            got = ROUTE(engine, app, state, p, dst, values, scan_ops)
        assert_same_transfer(got, reference_route(engine, app, state, p,
                                                  dst, values, scan_ops))
        return got

    with mock.patch.object(PropagationEngine, "_route_messages", route):
        yield seen


# ----------------------------------------------------------------------
# The apps
# ----------------------------------------------------------------------
class OddPartitionsDeclineNR(NetworkRankingPropagation):
    """NR whose ``combine_array`` declines every combine of a vertex of
    an odd partition: the inner slice of an odd partition falls back."""

    name = "NR-odd-declines"

    def combine_array(self, vertices, folded, counts, state):
        if vertices.size and state.pgraph.parts[vertices[0]] % 2:
            return None
        return super().combine_array(vertices, folded, counts, state)


#: name -> app factory.  RS and KCORE have no ``combine_array``: the
#: scalar ``combine`` takes their inner messages; NR-odd's hook declines
#: on odd partitions; VDD's virtual keys are never inner; TC is not
#: associative and routes per message
ROUTED_APPS = {
    "NR": NetworkRankingPropagation,
    "DPR": DeltaPageRankPropagation,
    "CC": ConnectedComponentsPropagation,
    "BFS": BreadthFirstSearchPropagation,
    "RLG": ReverseLinkGraphPropagation,
    "TFL": lambda: TwoHopFriendsPropagation(select_ratio=0.7),
    "RS": lambda: RecommenderPropagation(initial_ratio=0.5),
    "KCORE": KCoreDecompositionPropagation,
    "NR-odd": OddPartitionsDeclineNR,
    "VDD": DegreeDistributionPropagation,
    "TC": lambda: TriangleCountingPropagation(select_ratio=0.7),
}
FRONTIER_APPS = ("BFS", "DPR", "KCORE")


def run_every_app(surfer, iterations=2, vectorized_modes=(None, False),
                  names=tuple(ROUTED_APPS)):
    """Every app, local optimizations on and off, dense and (frontier
    apps) frontier, under :func:`checked_routes`; returns its counts."""
    with checked_routes() as seen:
        for name in names:
            modes = [{}] + ([{"frontier": True}]
                            if name in FRONTIER_APPS else [])
            for mode in modes:
                for local_opts in (True, False):
                    for vectorized in vectorized_modes:
                        job = surfer.run(ROUTED_APPS[name](), iterations,
                                         local_opts=local_opts,
                                         vectorized=vectorized, **mode)
                        assert not job.failed, (name, mode, local_opts)
    return seen


def drawn_surfer(edges, parts, k):
    graph = Graph.from_edges(edges, num_vertices=parts.size)
    plan = PartitionPlan(parts=parts, num_parts=k,
                         placement=np.arange(k) % 3, machine_sets={},
                         method="drawn")
    return Surfer(graph, make_test_cluster(3), plan=plan)


class TestFoldFirstEqualsThePerMessageRoute:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings())
    def test_index_set_and_sorted_range_plans(self, drawn):
        """Raw edge lists (self loops, duplicates, isolated vertices,
        empty partitions) under the drawn assignment, whose partitions
        are index sets, and under the same assignment sorted, whose
        partitions are consecutive id ranges."""
        edges, parts, k = drawn
        for assignment in (parts, np.sort(parts)):
            run_every_app(drawn_surfer(edges, assignment, k),
                          vectorized_modes=(None,))

    def test_object_columns(self, small_graph):
        """``vectorized=False`` emits object columns: folded by the
        Python ``merge``, never handed to ``combine_array``, and still
        the reference's products."""
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        seen = run_every_app(surfer, vectorized_modes=(False,))
        assert seen["routes"] and not seen["answered"]

    def test_standard_graph(self, small_graph):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        seen = run_every_app(surfer, iterations=3)
        # combine_array took folded slices, and NR-odd's declined some
        assert seen["answered"] and seen["declined"]


@pytest.fixture(scope="module")
def shard_surfer(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "rmat"
    build_shard_store(stream_rmat(9, edge_factor=8, seed=2010), path,
                      num_shards=4)
    graph = open_shard_graph(path)
    cluster = make_cluster(topology_by_name("T2(4,1)", 8))
    plan = contiguous_range_plan(graph, cluster.topology, 4, seed=2010,
                                 offsets=graph.store.vertex_starts)
    return Surfer(graph, cluster, seed=2010, plan=plan)


class TestShardBackedPlan:
    def test_every_app(self, shard_surfer):
        # TC's state reads the whole CSR, which a shard store never holds
        seen = run_every_app(shard_surfer, names=[
            name for name in ROUTED_APPS if name != "TC"])
        assert seen["answered"] and seen["declined"]
