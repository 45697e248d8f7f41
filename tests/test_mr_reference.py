"""The one MapReduce round against the per-record dict round.

``MapReduceEngine`` runs every app's records through one columnar
shuffle: the scalar ``map``'s ``emit`` appends to a ``(keys, values)``
column, reducers group in arrival order with a ``Grouping`` and hand the
scalar ``reduce`` its bags.  This module keeps the round that preceded
it — ``map`` into per-reducer lists of ``(key, value)`` pairs routed by
``stable_hash`` per key, a dict-of-lists combiner and reducer grouping
in first-arrival order, one ``kv_nbytes`` / ``output_nbytes`` call per
pair — as the reference (docs/COST_MODEL.md §3).  The round's outputs
as a dict, every ``RoundReport`` field and every task's cpu, disk, sends
and receives must agree exactly, in both ``vectorized`` modes that may
take scalar UDFs (``False``, ``None``) and with the combiner on and off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import (
    ConnectedComponentsMapReduce,
    DegreeDistributionMapReduce,
    NetworkRankingMapReduce,
    RecommenderMapReduce,
    ReverseLinkGraphMapReduce,
    TriangleCountingMapReduce,
    TwoHopFriendsMapReduce,
)
from repro.core.bandwidth_aware import PartitionPlan
from repro.core.surfer import Surfer, apply_outputs
from repro.graph.digraph import Graph
from repro.hashing import stable_hash
from repro.mapreduce.api import MapReduceApp, kv_nbytes
from repro.mapreduce.engine import MapReduceEngine, RoundReport
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task
from tests.conftest import (
    ArrivalOrderMapReduce,
    VertexState,
    _RoundCountingMapReduce,
    make_test_cluster,
)
from tests.test_properties import raw_partitionings


# ----------------------------------------------------------------------
# The per-record dict round
# ----------------------------------------------------------------------
class ReferenceRound:
    """One MapReduce round as per-record Python pairs and dicts."""

    def __init__(self, engine: MapReduceEngine) -> None:
        self.pgraph = engine.pgraph
        self.store = engine.store
        self.cluster = engine.cluster
        self.assignment = engine.assignment
        self.combiner = engine.combiner

    def map_phase(self, app, state, num_reducers):
        per_part = []
        for p in range(self.pgraph.num_parts):
            emitted = []
            app.map(p, self.pgraph, state,
                    lambda key, value: emitted.append((key, value)))
            mo = {"records": len(emitted), "cpu": float(len(emitted)),
                  "spill": 0.0, "pre": 0.0, "sends": {}, "chunks": {}}
            if self.combiner:
                mo["pre"] = float(sum(kv_nbytes(app, key, value)
                                      for key, value in emitted))
                folded: dict = {}
                for key, value in emitted:
                    folded.setdefault(key, []).append(value)
                pairs = []
                for key, values in folded.items():
                    pairs.append((key, app.combine(key, values, state)))
                    mo["cpu"] += len(values) + 1.0
            else:
                pairs = emitted
            for key, value in pairs:
                nbytes = kv_nbytes(app, key, value)
                mo["spill"] += nbytes
                r = stable_hash(key) % num_reducers
                mo["chunks"].setdefault(r, []).append((key, value))
                mo["sends"][r] = mo["sends"].get(r, 0.0) + nbytes
            mo["shuffled"] = len(pairs)
            if not self.combiner:
                mo["pre"] = mo["spill"]
            per_part.append(mo)
        return per_part

    @staticmethod
    def reduce_bucket(app, state, chunk_list):
        grouped: dict = {}
        for chunk in chunk_list:  # partition order, emission order within
            for key, value in chunk:
                grouped.setdefault(key, []).append(value)
        out = []
        cpu = 0.0
        for key, values in grouped.items():
            app.reduce(key, values, state,
                       lambda k, v: out.append((k, v)))
            cpu += len(values) + 1.0
        return out, cpu

    def charge_outputs(self, app, pairs):
        out_bytes = 0.0
        writeback: dict = {}
        num_vertices = self.pgraph.num_vertices
        for key, value in pairs:
            nbytes = app.output_nbytes(key, value)
            out_bytes += nbytes
            if app.writeback_to_partitions and isinstance(
                    key, (int, np.integer)) and 0 <= key < num_vertices:
                home = int(self.assignment[self.pgraph.parts[int(key)]])
                writeback[home] = writeback.get(home, 0.0) + nbytes
        return out_bytes, writeback

    def run_round(self, app, state, scheduler):
        num_reducers = self.cluster.num_machines
        per_part = self.map_phase(app, state, num_reducers)
        bucket_sources = [{} for _ in range(num_reducers)]
        map_tasks = []
        for p, mo in enumerate(per_part):
            machine = int(self.assignment[p])
            for r, nbytes in mo["sends"].items():
                src = bucket_sources[r]
                src[machine] = src.get(machine, 0.0) + nbytes
            fetches = []
            if machine not in self.store.replicas(p):
                fetches.append((self.store.primary(p),
                                float(self.pgraph.partition_bytes(p))))
            spec = self.cluster.machine(machine).spec
            working_set = self.pgraph.partition_bytes(p) + mo["spill"]
            map_tasks.append(Task(
                name=f"map[{p}]", machine=machine, kind="map", partition=p,
                disk_read_bytes=(self.pgraph.partition_bytes(p)
                                 + mo["spill"]),
                cpu_ops=mo["cpu"] + self.pgraph.partition_edge_count(p),
                disk_write_bytes=mo["spill"],
                sends=sorted(mo["sends"].items()),
                fetches=fetches,
                disk_penalty=(spec.random_io_penalty
                              if working_set > spec.memory_bytes else 1.0),
            ))
        map_result = scheduler.run_stage(map_tasks)
        outputs: dict = {}
        reduce_tasks = []
        for r in range(num_reducers):
            chunks = [mo["chunks"][r] for mo in per_part
                      if r in mo["chunks"]]
            pairs, cpu = self.reduce_bucket(app, state, chunks)
            outputs.update(pairs)
            out_bytes, writeback = self.charge_outputs(app, pairs)
            staged = float(sum(bucket_sources[r].values()))
            inbound = sorted(bucket_sources[r].items())
            reduce_tasks.append(Task(
                name=f"reduce[{r}]", machine=r, kind="reduce",
                disk_read_bytes=2.0 * staged, cpu_ops=cpu,
                disk_write_bytes=2.0 * staged + out_bytes,
                sends=sorted(writeback.items()),
                receives=inbound, input_transfers=inbound,
            ))
        reduce_result = scheduler.run_stage(reduce_tasks)
        report = RoundReport(
            map_stage=map_result,
            reduce_stage=reduce_result,
            map_records=sum(mo["records"] for mo in per_part),
            shuffle_bytes=sum(mo["spill"] for mo in per_part),
            network_bytes=sum(nbytes for r, srcs in enumerate(bucket_sources)
                              for machine, nbytes in srcs.items()
                              if machine != r),
            shuffle_records=sum(mo["shuffled"] for mo in per_part),
            shuffle_bytes_precombine=sum(mo["pre"] for mo in per_part),
        )
        return outputs, report


# ----------------------------------------------------------------------
# Object keys: no graph app emits them
# ----------------------------------------------------------------------
class _DictStateMapReduce(MapReduceApp):
    def setup(self, pgraph):
        return VertexState(pgraph=pgraph, values={})

    def reduce(self, key, values, state, emit):
        emit(key, tuple(values))  # arrival order observable

    def combine(self, key, values, state):
        return sum(values)

    def update(self, state, outputs):
        state.values.update(outputs)

    def finalize(self, state):
        return dict(state.values)


class StrKeysMapReduce(_DictStateMapReduce):
    """Counts edges per destination label ``"v<dst mod 5>"``."""

    name = "str-keys-mr"

    def map(self, partition, pgraph, state, emit):
        src, dst = pgraph.partition_edges(partition)
        for u, v in zip(src.tolist(), dst.tolist()):
            emit(f"v{v % 5}", u % 3 + 1)


class MixedKeysMapReduce(_DictStateMapReduce):
    """Keys of every kind in one partition: ``int`` and ``np.int64``
    vertex ids (one group per id, as in a dict), ``str`` labels and
    ``(int, str)`` tuples.  Its integer outputs write back to the
    graph, so the object-key writeback is charged too."""

    name = "mixed-keys-mr"
    writeback_to_partitions = True

    def map(self, partition, pgraph, state, emit):
        src, dst = pgraph.partition_edges(partition)
        for u, v in zip(src.tolist(), dst.tolist()):
            emit(v, 1)
            emit(np.int64(v), 2)
            if (u + v) % 2:
                emit(f"s{u % 3}", 3)
            if u % 3 == 0:
                emit((u % 2, "t"), 4)


class CountingMapReduce(_RoundCountingMapReduce):
    """conftest's damped-rank app, each edge keyed by its destination."""

    name = "counting-mr"

    def emitted(self, partition, pgraph, state):
        src, dst = pgraph.partition_edges(partition)
        return dst.astype(np.int64), src


#: app factory, has ``combine``
REFERENCE_APPS = {
    "CC": (ConnectedComponentsMapReduce, False),
    "VDD": (DegreeDistributionMapReduce, True),
    "RS": (lambda: RecommenderMapReduce(initial_ratio=0.5), False),
    "NR": (NetworkRankingMapReduce, True),
    "NR-naive": (lambda: NetworkRankingMapReduce(in_map_combining=False),
                 True),
    "RLG": (ReverseLinkGraphMapReduce, False),
    "TC": (lambda: TriangleCountingMapReduce(select_ratio=0.7), False),
    "TFL": (lambda: TwoHopFriendsMapReduce(select_ratio=0.7), False),
    "ORDER": (ArrivalOrderMapReduce, False),
    "COUNTING": (CountingMapReduce, True),
    "STR": (StrKeysMapReduce, True),
    "MIXED": (MixedKeysMapReduce, True),
}


def _canonical(value):
    """A reduce output in a form both rounds share: sets as sorted
    tuples (TFL's ``reduce`` returns a frozenset, its ``reduce_array``
    ragged rows), floats bitwise."""
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, float):
        return value.hex()
    return value


def as_dict(outputs) -> dict:
    if not isinstance(outputs, dict):
        keys, values = outputs
        if not isinstance(values, list):
            values = values.tolist()
        outputs = dict(zip(keys.tolist(), values))
    return {key: _canonical(value) for key, value in outputs.items()}


def run_rounds(surfer, app, rounds, reference, **options):
    """``rounds`` rounds of ``app``: (outputs as dicts, reports, every
    task's span)."""
    surfer.cluster.reset()
    engine = MapReduceEngine(surfer.pgraph, surfer.store.copy(),
                             surfer.cluster, assignment=surfer.assignment,
                             **options)
    runner = ReferenceRound(engine) if reference else engine
    scheduler = StageScheduler(surfer.cluster)
    state = app.setup(surfer.pgraph)
    outs, reports = [], []
    for _ in range(rounds):
        out, report = runner.run_round(app, state, scheduler)
        outs.append(as_dict(out))
        reports.append(report)
        apply_outputs(app, state, out)
    return outs, reports, scheduler.events.task_spans()


def assert_matches_reference(surfer, factory, has_combine, rounds=2):
    for combiner in (False, True)[:1 + has_combine]:
        want = run_rounds(surfer, factory(), rounds, True,
                          combiner=combiner)
        for vectorized in (False, None):
            got = run_rounds(surfer, factory(), rounds, False,
                             combiner=combiner, vectorized=vectorized)
            assert got[0] == want[0], (vectorized, combiner)
            assert got[1] == want[1], (vectorized, combiner)
            assert got[2] == want[2], (vectorized, combiner)


def drawn_surfer(drawn):
    edges, parts, k = drawn
    graph = Graph.from_edges(edges, num_vertices=parts.size)
    plan = PartitionPlan(parts=parts, num_parts=k,
                         placement=np.arange(k) % 3, machine_sets={},
                         method="drawn")
    return Surfer(graph, make_test_cluster(3), plan=plan)


class TestOneRoundEqualsTheDictRound:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings())
    def test_every_app_every_mode(self, drawn):
        """Raw edge lists (self-loops, duplicates, isolated vertices,
        empty partitions): every app, ``vectorized`` False and None,
        combiner on and off where the app has ``combine``; outputs,
        reports and tasks exactly the dict round's."""
        surfer = drawn_surfer(drawn)
        for factory, has_combine in REFERENCE_APPS.values():
            assert_matches_reference(surfer, factory, has_combine)

    @pytest.mark.parametrize("name", REFERENCE_APPS)
    def test_standard_graph(self, small_graph, name):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        assert_matches_reference(surfer, *REFERENCE_APPS[name], rounds=3)


class TestObjectKeys:
    def test_int_and_numpy_int_keys_share_one_group(self):
        """``3`` and ``np.int64(3)`` are one dict key, so one group and
        one ``reduce`` call — in an all-integer column and in an object
        column alike."""

        class Threes(_DictStateMapReduce):
            name = "threes-mr"

            def map(self, partition, pgraph, state, emit):
                emit(3, partition)
                emit(np.int64(3), 10 + partition)
                if partition == 1:
                    emit("three", 20)

        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)], num_vertices=4)
        plan = PartitionPlan(parts=np.array([0, 0, 1, 1]), num_parts=2,
                             placement=np.arange(2), machine_sets={},
                             method="drawn")
        surfer = Surfer(graph, make_test_cluster(2), plan=plan)
        outs = run_rounds(surfer, Threes(), 1, False)[0]
        assert outs == [{3: (0, 10, 1, 11), "three": (20,)}]
        assert_matches_reference(surfer, Threes, True)
