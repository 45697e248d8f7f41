"""The partition pool against the plain loop.

``PropagationEngine`` hands a large array-path Transfer's per-partition
emit and route to :func:`repro.runtime.partition_pool.map_partitions`.
Here the gate is patched to 0 and the pool to two workers, so every
array-path Transfer of a small job is shared between the calling thread
and two pool threads.  Each job must equal the same job
run as a plain loop: the result's bits, every ``ClusterMetrics`` field,
every registry counter but the wall-clock ones, every report, span and
instant — or, where the loop raises, the same exception.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    APP_ORDER,
    APP_REGISTRY,
    DiameterEstimationPropagation,
    NetworkRankingPropagation,
    ShortestPathsPropagation,
)
from repro.core.bandwidth_aware import PartitionPlan
from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.graph.digraph import Graph
from repro.graph.generators import composite_social_graph
from repro.propagation.api import PropagationApp
from repro.runtime import partition_pool
from repro.runtime.partition_pool import map_partitions
from tests.conftest import make_test_cluster
from tests.test_properties import (
    raw_partitionings,
    shard_backed_graph,
    sim_counters,
)
from tests.test_route_reference import ROUTED_APPS, assert_same

#: every propagation app: the routed ones plus DIAM and SSSP
APPS = {**ROUTED_APPS, "DIAM": DiameterEstimationPropagation,
        "SSSP": ShortestPathsPropagation}


@contextmanager
def pooled(workers=2, gate=0):
    """The pool with ``workers`` threads and ``gate`` as its threshold;
    yields the list of every lane submitted to it."""
    submitted = []
    executor = partition_pool._executor

    class Spy:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            submitted.append(args)
            return self.pool.submit(fn, *args)

    with mock.patch.multiple(partition_pool, WORKERS=workers,
                             MIN_POOLED_WORK=gate), \
            mock.patch.object(partition_pool, "_executor",
                              lambda n: Spy(executor(n))):
        yield submitted


def outcome(run):
    """A job's every cost, count, span and result — or the exception it
    raised, by type and message."""
    try:
        job = run()
    except Exception as exc:  # the loop's error must be the pool's
        return ("raised", type(exc), str(exc))
    return (job.failed, job.error, job.metrics, job.reports,
            sim_counters(job), job.events.spans, job.events.instants,
            job.result)


def assert_same_outcome(pool, loop):
    if loop[0] == "raised":
        assert pool == loop
    else:
        assert pool[:-1] == loop[:-1]
        assert_same(pool[-1], loop[-1], "result")


def run_both(run):
    """``run`` on the pool and as the plain loop; returns how many
    lanes the pooled run submitted."""
    with pooled() as submitted:
        pool = outcome(run)
    with pooled(workers=0):
        loop = outcome(run)
    assert_same_outcome(pool, loop)
    return len(submitted)


def on_array_path(app, vectorized):
    return (vectorized is not False and not app.uses_virtual_vertices
            and type(app).transfer_array is not PropagationApp.transfer_array)


def run_every_mode(surfer, name, iterations=2):
    """One app, dense and (frontier apps) frontier, local optimizations
    on and off, ``vectorized`` None and True; every scalar-path job
    must stay off the pool."""
    factory = APPS[name]
    modes = [False, True] if factory().uses_frontier else [False]
    submits = 0
    for frontier in modes:
        for local_opts in (True, False):
            for vectorized in (None, True, False):
                submitted = run_both(lambda: surfer.run(
                    factory(), iterations, local_opts=local_opts,
                    vectorized=vectorized, frontier=frontier))
                if not on_array_path(factory(), vectorized):
                    assert submitted == 0, (name, vectorized)
                submits += submitted
    return submits


def drawn_surfer(graph, parts, k):
    plan = PartitionPlan(parts=parts, num_parts=k,
                         placement=np.arange(k) % 3, machine_sets={},
                         method="drawn")
    return Surfer(graph, make_test_cluster(3), plan=plan)


class TestPoolEqualsTheLoop:
    @pytest.mark.parametrize("name", APPS)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings())
    def test_every_app_and_mode(self, name, drawn):
        """Raw edge lists (self loops, duplicates, isolated vertices,
        empty partitions) as index-set and sorted-range plans, in memory
        and shard-backed."""
        edges, parts, k = drawn
        with tempfile.TemporaryDirectory() as tmp:
            graphs = [Graph.from_edges(edges, num_vertices=parts.size)]
            if name != "TC":  # TC's state reads the whole CSR
                graphs.append(shard_backed_graph(
                    edges, parts.size, os.path.join(tmp, "store")))
            for graph in graphs:
                for assignment in (parts, np.sort(parts)):
                    run_every_mode(drawn_surfer(graph, assignment, k), name)

    def test_standard_graph_submits(self, small_graph):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        assert run_every_mode(surfer, "NR", iterations=3) > 0
        assert run_every_mode(surfer, "NR-odd") > 0


class OddPartitionsDeclineTransfer(NetworkRankingPropagation):
    """NR whose ``transfer_array`` declines on odd partitions: those
    fall back to the scalar ``transfer`` on whichever lane runs them."""

    name = "NR-odd-transfer"
    declines = staticmethod(lambda p: p % 2 == 1)

    def transfer_array(self, src, dst, state):
        if src.size and self.declines(int(state.pgraph.parts[src[0]])):
            return None
        return super().transfer_array(src, dst, state)


class DeclinesOnOneAndTwo(OddPartitionsDeclineTransfer):
    name = "NR-declines-1-2"
    declines = staticmethod(lambda p: p in (1, 2))


def off_the_caller(slow=0.02):
    """Whether this is a pool thread; the calling (main) thread first
    sleeps ``slow`` seconds, so that the pool threads claim partitions
    meanwhile."""
    if threading.current_thread() is threading.main_thread():
        time.sleep(slow)
        return False
    return True


class DividesByZeroOffTheCaller(NetworkRankingPropagation):
    """NR dividing by zero on the pool threads only."""

    name = "NR-div-pool"

    def transfer_array(self, src, dst, state):
        out = super().transfer_array(src, dst, state)
        if off_the_caller():
            out = out / np.zeros(out.size)
        return out


@pytest.fixture(scope="module")
def six_parts(small_graph):
    return drawn_surfer(small_graph, np.arange(small_graph.num_vertices) % 6,
                        6)


class TestDirected:
    def test_declines_on_odd_partitions(self, six_parts):
        for local_opts in (True, False):
            assert run_both(lambda: six_parts.run(
                OddPartitionsDeclineTransfer(), 2,
                local_opts=local_opts)) > 0

    def test_vectorized_raises_the_lowest_declining_partition(
            self, six_parts):
        with pooled() as submitted, pytest.raises(
                JobError, match="declined on partition 1$"):
            six_parts.run(DeclinesOnOneAndTwo(), 2, vectorized=True)
        assert submitted
        run_both(lambda: six_parts.run(DeclinesOnOneAndTwo(), 2,
                                       vectorized=True))

    def test_errstate_reaches_a_pool_thread(self, six_parts):
        with pooled() as submitted, np.errstate(divide="raise"), \
                pytest.raises(FloatingPointError):
            six_parts.run(DividesByZeroOffTheCaller(), 2)
        assert submitted
        with pooled(), np.errstate(divide="ignore"):
            job = six_parts.run(DividesByZeroOffTheCaller(), 2)
        assert not job.failed

    def test_social_size_graph_stays_serial(self):
        """The app matrix on a ``social_ba_apps``-size graph never
        reaches the real gate, however many cores there are."""
        graph = composite_social_graph(8, 512, k=8, p_r=0.05, seed=2010)
        surfer = drawn_surfer(graph, np.arange(graph.num_vertices) % 16,
                              16)
        with pooled(gate=partition_pool.MIN_POOLED_WORK) as submitted:
            for name in APP_ORDER:
                prop_cls, _, iterations = APP_REGISTRY[name]
                kwargs = ({"select_ratio": 0.1}
                          if name in ("TC", "TFL") else {})
                job = surfer.run(prop_cls(**kwargs), iterations)
                assert not job.failed, name
        assert submitted == []


class TestMapPartitions:
    def test_results_in_partition_order(self):
        def first_slow(p):
            time.sleep(0.2 if p == 0 else 0.0)  # ends last
            return p, threading.current_thread().name

        with pooled() as submitted:
            got = map_partitions(first_slow, 8, work=1)
        assert [p for p, _ in got] == list(range(8))
        assert len(submitted) == 2
        names = [name for _, name in got]
        assert names[0] not in names[1:]  # the other lanes took the rest

    def test_the_caller_works_too(self):
        def where(p):
            off_the_caller()
            return threading.current_thread().name

        with pooled():
            names = map_partitions(where, 6, work=1)
        assert threading.current_thread().name in names
        assert len(set(names)) > 1

    def test_below_the_gate_is_the_loop(self):
        with pooled(gate=10) as submitted:
            assert map_partitions(lambda p: p * p, 5, work=9) == [
                0, 1, 4, 9, 16]
        assert submitted == []

    @pytest.mark.parametrize("failing", [{1, 2}, {2, 4}, {0, 5}, {4}])
    def test_raises_the_lowest_failing_partition(self, failing):
        ran = []

        def fn(p):
            ran.append(p)
            if p in failing:
                raise ValueError(p)
            return p

        with pooled(), pytest.raises(ValueError) as raised:
            map_partitions(fn, 6, work=1)
        assert raised.value.args == (min(failing),)
        assert set(range(min(failing) + 1)) <= set(ran)

    def test_context_reaches_the_workers(self):
        def divide(p):  # by zero on the pool threads only
            return np.float64(1.0) / np.float64(not off_the_caller())

        with pooled(), np.errstate(divide="raise"), \
                pytest.raises(FloatingPointError):
            map_partitions(divide, 6, work=1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 4))
    def test_any_size_and_worker_count(self, n, workers):
        with pooled(workers=workers):
            assert map_partitions(lambda p: -p, n, work=1) == [
                -p for p in range(n)]
