"""Shared fixtures: small graphs and clusters that keep tests fast."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import repro.fold
from repro.apps.base import VertexState
from repro.bench.workloads import HARDWARE_SCALE, TESTBED_MACHINE
from repro.cluster.cluster import Cluster
from repro.cluster.topology import t1
from repro.core.surfer import Surfer
from repro.graph.generators import composite_social_graph, grid, ring
from repro.graph.stream import DEFAULT_CHUNK_EDGES, EdgeStream
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp


def chunk_partition(graph, num_parts: int) -> np.ndarray:
    """Contiguous equal ranges of vertex ids (a flat-file split)."""
    n = graph.num_vertices
    return (np.arange(n, dtype=np.int64) * num_parts) // max(n, 1)


def wgraph_is_symmetric(wgraph) -> bool:
    """True iff every stored arc of ``wgraph`` has a mirror with equal
    weight."""
    src = wgraph.edge_sources()
    forward = np.lexsort((wgraph.eweights, wgraph.indices, src))
    mirror = np.lexsort((wgraph.eweights, src, wgraph.indices))
    return bool(
        np.array_equal(src[forward], wgraph.indices[mirror])
        and np.array_equal(wgraph.indices[forward], src[mirror])
        and np.array_equal(wgraph.eweights[forward],
                           wgraph.eweights[mirror]))


def stream_from_edges(edges, num_vertices,
                      chunk_size=DEFAULT_CHUNK_EDGES) -> EdgeStream:
    """An in-memory ``(m, 2)`` edge array as an :class:`EdgeStream`."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)

    def emit():
        for lo in range(0, len(arr), chunk_size):
            yield arr[lo:lo + chunk_size, 0], arr[lo:lo + chunk_size, 1]

    return EdgeStream(int(num_vertices), len(arr), chunk_size, emit)


@pytest.fixture(scope="session")
def small_graph():
    """A small composite social graph (~8k edges) shared across tests."""
    return composite_social_graph(
        num_communities=8, community_size=64, k=6, seed=42
    )


@pytest.fixture(scope="session")
def tiny_graph():
    """A very small composite graph for the slowest code paths."""
    return composite_social_graph(
        num_communities=4, community_size=32, k=4, seed=7
    )


@pytest.fixture()
def grid_graph():
    return grid(8, 8)


@pytest.fixture()
def ring_graph():
    return ring(16)


def make_test_cluster(num_machines: int = 8, topology=None) -> Cluster:
    """A small regime-scaled cluster."""
    if topology is None:
        topology = t1(num_machines, 40_000_000.0 / HARDWARE_SCALE)
    return Cluster(topology,
                   machine_spec=TESTBED_MACHINE.scaled(HARDWARE_SCALE))


@pytest.fixture()
def small_cluster():
    return make_test_cluster(8)


@pytest.fixture(scope="session")
def shared_surfer(small_graph):
    """A session-scoped Surfer on the small graph (read-only use)."""
    cluster = make_test_cluster(8)
    return Surfer(small_graph, cluster, num_parts=16,
                  layout="bandwidth-aware", seed=1)


@pytest.fixture(scope="session")
def shared_surfer_oblivious(small_graph):
    cluster = make_test_cluster(8)
    return Surfer(small_graph, cluster, num_parts=16,
                  layout="oblivious", seed=1)


class ArrivalOrderApp(PropagationApp):
    """``combine`` is a positional checksum of its bag, so any deviation
    from the scalar route's arrival order changes the result.  It has
    ``transfer_array`` but neither ``combine_array`` nor
    ``update_array``: array Transfer, then the bag fallback."""

    name = "arrival-order"

    def setup(self, pgraph):
        return VertexState(pgraph=pgraph, values=np.arange(
            1, pgraph.num_vertices + 1, dtype=np.int64))

    def transfer(self, u, v, state):
        return int(state.values[u])

    def transfer_array(self, src, dst, state):
        return state.values[src]

    def combine(self, v, values, state):
        acc = 0
        for value in values:
            acc = (31 * acc + int(value)) % 1_000_003
        return acc

    def finalize(self, state):
        return state.values


class ArrivalOrderMapReduce(MapReduceApp):
    """Reverses edges like RLG, but ``reduce`` emits its bag as it came
    — a tuple in shuffle arrival order — so any deviation from the
    scalar shuffle's order changes the result.  ``reduce_array`` rebuilds
    the bags from the group ids; its values are a list of tuples under
    default output sizing."""

    name = "arrival-order-mr"

    def setup(self, pgraph):
        return VertexState(pgraph=pgraph, values={})

    def map(self, partition, pgraph, state, emit):
        src, dst = pgraph.partition_edges(partition)
        for u, v in zip(src.tolist(), dst.tolist()):
            emit(v, u)

    def map_array(self, partition, pgraph, state):
        src, dst = pgraph.partition_edges(partition)
        return dst.astype(np.int64), src.astype(np.int64)

    def reduce(self, key, values, state, emit):
        emit(key, tuple(values))

    def reduce_array(self, keys, gid, values, state):
        bags = values[np.argsort(gid, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(gid, minlength=keys.size)).tolist()
        return keys, [tuple(bags[lo:hi])
                      for lo, hi in zip([0] + ends, ends)]

    def update(self, state, outputs):
        state.values.update(outputs)

    def finalize(self, state):
        return dict(state.values)


class _RoundCountingMapReduce(MapReduceApp):
    """Sums ``0.5 * rank`` of a key's sources plus one, like a damped
    rank; counts its rounds in ``state.extra["round"]`` so ``map`` and
    ``map_array`` can emit a round-dependent key column."""

    writeback_to_partitions = True
    combine_ufunc = np.add

    def setup(self, pgraph):
        state = VertexState(pgraph=pgraph,
                            values=np.ones(pgraph.num_vertices))
        state.extra["round"] = 0
        return state

    def map(self, partition, pgraph, state, emit):
        keys, src = self.emitted(partition, pgraph, state)
        for key, u in zip(keys.tolist(), src.tolist()):
            emit(key, 0.5 * state.values[u])

    def map_array(self, partition, pgraph, state):
        keys, src = self.emitted(partition, pgraph, state)
        return keys, 0.5 * state.values[src]

    def reduce(self, key, values, state, emit):
        emit(key, 1.0 + sum(values))

    def reduce_array(self, keys, gid, values, state):
        return keys, 1.0 + np.bincount(gid, weights=values,
                                       minlength=keys.size)

    def combine(self, key, values, state):
        return sum(values)

    def update(self, state, outputs):
        super().update(state, outputs)
        state.extra["round"] += 1

    def update_array(self, state, keys, values):
        super().update_array(state, keys, values)
        state.extra["round"] += 1

    def finalize(self, state):
        return state.values


class AlternatingKeysMapReduce(_RoundCountingMapReduce):
    """Even partitions send each edge's value to its destination in even
    rounds and to its source in odd ones; odd partitions always to the
    destination.  A held shuffle plan must be rebuilt for the even
    partitions every round, and every reducer's with them, while the
    odd partitions' plans stay valid."""

    name = "alternating-keys-mr"

    def emitted(self, partition, pgraph, state):
        src, dst = pgraph.partition_edges(partition)
        flip = partition % 2 == 0 and state.extra["round"] % 2 == 1
        return (src if flip else dst).astype(np.int64), src


class InPlaceKeysMapReduce(_RoundCountingMapReduce):
    """``map_array`` keeps each partition's key column in
    ``state.extra`` and shifts it in place every round (``key + 1 mod
    n``) before returning the very array it returned the round before,
    so nothing that remembers the array — rather than its contents —
    can tell the rounds apart.  ``map`` emits the same keys from the
    round count."""

    name = "in-place-keys-mr"

    def emitted(self, partition, pgraph, state):
        src, dst = pgraph.partition_edges(partition)
        return (dst + state.extra["round"]) % pgraph.num_vertices, src

    def map_array(self, partition, pgraph, state):
        src, dst = pgraph.partition_edges(partition)
        held = state.extra.setdefault("keys", {})
        keys = held.get(partition)
        if keys is None:
            keys = held[partition] = dst.astype(np.int64)
        else:
            np.add(keys, 1, out=keys)
            np.remainder(keys, pgraph.num_vertices, out=keys)
        return keys, 0.5 * state.values[src]


def scalar_only(app_cls):
    """``app_cls`` with every array hook of either primitive failing the
    test when called: a ``vectorized=False`` job must call none."""
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{app_cls.name}: an array hook ran under "
                             "vectorized=False")

    return type(f"ScalarOnly{app_cls.__name__}", (app_cls,), {
        hook: forbidden for hook in ("transfer_array", "combine_array",
                                     "map_array", "reduce_array",
                                     "update_array")})


@contextmanager
def fold_strategy(strategy):
    """Force :mod:`repro.fold`'s strategy choice: ``"counting"`` or
    ``"sorted"``."""
    factor = {"counting": float("inf"), "sorted": 0}[strategy]
    with mock.patch.object(repro.fold, "COUNTING_SPAN_FACTOR", factor):
        yield


def fold_with(strategy, dests, values, ufunc):
    """``fold_by_dest`` with its strategy forced."""
    with fold_strategy(strategy):
        return repro.fold.fold_by_dest(dests, values, ufunc)


def assert_partition_valid(parts: np.ndarray, num_vertices: int,
                           num_parts: int) -> None:
    assert parts.shape == (num_vertices,)
    assert parts.min() >= 0
    assert parts.max() < num_parts
