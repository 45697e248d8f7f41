"""SimSan: the opt-in runtime sanitizer.

The vector-clock detector must flag a deliberately racy synthetic
schedule and stay silent on a properly barriered one; the sanitizer
hooks must catch corrupted counters, broken span framing and writable
shard views; and a sanitized end-to-end run must be bit-identical to an
unsanitized one (modulo the real-time wall counters, which differ
between *any* two runs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.surfer import Surfer
from repro.apps import NetworkRankingPropagation, NetworkRankingMapReduce
from repro.cluster.faults import FaultPlan
from repro.errors import SanitizerError
from repro.graph.store import ShardBackedGraph, build_shard_store
from repro.graph.stream import stream_rmat
from repro.runtime.events import EventStream, Span
from repro.runtime.sanitizer import (
    OP_BY_KIND,
    Sanitizer,
    TaskEvent,
    VectorClockRaceDetector,
    sanitize_enabled,
)
from repro.runtime.scheduler import execution_span
from repro.runtime.tasks import Task

from tests.conftest import make_test_cluster


def execution(machine, kind, partition, *, succeeded=True, start=0.0,
              end=1.0):
    task = Task(name=f"{kind}[{partition}]@{machine}", machine=machine,
                kind=kind, partition=partition)
    return execution_span(task, machine, start, end, succeeded)


# ---------------------------------------------------------------------------
# vector clocks
# ---------------------------------------------------------------------------

class TestTaskEvent:
    def test_happens_before_is_componentwise(self):
        a = TaskEvent(0, 1, "write", "a", ((0, 1),))
        b = TaskEvent(0, 1, "write", "b", ((0, 2),))
        assert a.happens_before(b)
        assert not b.happens_before(a)
        assert not a.concurrent_with(b)

    def test_incomparable_clocks_are_concurrent(self):
        a = TaskEvent(0, 1, "write", "a", ((0, 1),))
        b = TaskEvent(1, 1, "write", "b", ((1, 1),))
        assert a.concurrent_with(b)


class TestVectorClockRaceDetector:
    def test_unbarriered_write_write_races(self):
        det = VectorClockRaceDetector()
        det.record(0, 5, "write", "combine[5]@0")
        det.record(1, 5, "write", "combine[5]@1")
        races = det.barrier()
        assert len(races) == 1
        assert "partition 5" in races[0]

    def test_write_read_races(self):
        det = VectorClockRaceDetector()
        det.record(0, 5, "write", "combine[5]@0")
        det.record(1, 5, "read", "transfer[5]@1")
        assert det.barrier()

    def test_concurrent_reads_do_not_race(self):
        det = VectorClockRaceDetector()
        det.record(0, 5, "read", "transfer[5]@0")
        det.record(1, 5, "read", "transfer[5]@1")
        assert det.barrier() == []

    def test_distinct_partitions_do_not_race(self):
        det = VectorClockRaceDetector()
        det.record(0, 5, "write", "combine[5]@0")
        det.record(1, 6, "write", "combine[6]@1")
        assert det.barrier() == []

    def test_same_machine_is_program_ordered(self):
        det = VectorClockRaceDetector()
        det.record(0, 5, "write", "first")
        det.record(0, 5, "write", "second")
        assert det.barrier() == []

    def test_barrier_orders_later_accesses(self):
        det = VectorClockRaceDetector()
        det.record(0, 5, "write", "combine[5]@0")
        assert det.barrier() == []
        # after the join, machine 1's access inherits machine 0's tick
        det.record(1, 5, "write", "combine[5]@1")
        assert det.barrier() == []
        assert det.barriers == 2
        assert det.events_recorded == 2

    def test_unknown_op_rejected(self):
        det = VectorClockRaceDetector()
        with pytest.raises(SanitizerError):
            det.record(0, 5, "mutate", "x")


# ---------------------------------------------------------------------------
# sanitizer stage hook
# ---------------------------------------------------------------------------

class TestOnStage:
    def test_deliberately_racy_schedule_flagged(self):
        # two machines both combine (write) partition 3 in one stage —
        # a schedule the real planner must never produce
        san = Sanitizer()
        with pytest.raises(SanitizerError, match="BSP write race"):
            san.on_stage([
                execution(0, "combine", 3),
                execution(1, "combine", 3),
            ])

    def test_partition_parallel_stage_clean(self):
        san = Sanitizer()
        san.on_stage([execution(m, "combine", m) for m in range(4)])
        assert san.stages_checked == 1

    def test_failed_copy_does_not_commit_an_access(self):
        # a speculation loser / failed attempt never writes its output,
        # so it must not race the winning copy
        san = Sanitizer()
        san.on_stage([
            execution(0, "combine", 3),
            execution(1, "combine", 3, succeeded=False),
        ])

    def test_shadow_counts_grow(self):
        san = Sanitizer()
        san.on_stage([
            execution(0, "transfer", 0),
            execution(1, "transfer", 1, succeeded=False),
        ])
        assert san._shadow_executed == 1
        assert san._shadow_failed == 1

    def test_op_kind_mapping(self):
        assert OP_BY_KIND["combine"] == "write"
        assert OP_BY_KIND["reduce"] == "write"
        assert OP_BY_KIND["restore"] == "write"
        assert OP_BY_KIND["transfer"] == "read"
        assert OP_BY_KIND["map"] == "read"


# ---------------------------------------------------------------------------
# superstep boundary: shadow counters + reconciliation
# ---------------------------------------------------------------------------

class TestOnSuperstep:
    def test_corrupted_task_counter_caught(self):
        san = Sanitizer()
        events = EventStream()
        # registry claims 5 executions the sanitizer never witnessed
        events.metrics.add("scheduler.tasks_executed", 5.0)
        cluster = make_test_cluster(2)
        with pytest.raises(SanitizerError,
                           match="scheduler.tasks_executed"):
            san.on_superstep(events, cluster)

    def test_conserved_counters_pass(self):
        san = Sanitizer()
        events = EventStream()
        cluster = make_test_cluster(2)
        san.on_superstep(events, cluster)
        assert san.supersteps_checked == 1


# ---------------------------------------------------------------------------
# span frame discipline
# ---------------------------------------------------------------------------

class TestFrameDiscipline:
    @staticmethod
    def work(start, end, machine=0):
        return Span(name=f"combine[0]@{machine}", kind="combine",
                    start=start, end=end, machine=machine)

    def test_framed_stage_clean(self):
        ev = EventStream()
        ev.span(self.work(0.0, 1.0))
        ev.span(Span("stage[0] combine", "stage", 0.0, 1.0))
        ev.span(Span("iteration[0]", "iteration", 0.0, 1.0))
        assert ev.verify_frame_discipline() == []

    def test_task_outside_stage_window_flagged(self):
        ev = EventStream()
        ev.span(self.work(0.0, 2.0))
        ev.span(Span("stage[0] combine", "stage", 0.0, 1.0))
        ev.span(Span("iteration[0]", "iteration", 0.0, 1.0))
        assert ev.verify_frame_discipline()

    def test_stage_outside_iteration_flagged(self):
        ev = EventStream()
        ev.span(self.work(0.0, 1.0))
        ev.span(Span("stage[0] combine", "stage", 0.0, 1.0))
        ev.span(Span("iteration[0]", "iteration", 0.5, 1.0))
        assert ev.verify_frame_discipline()

    def test_trailing_unframed_task_flagged(self):
        ev = EventStream()
        ev.span(self.work(0.0, 1.0))
        assert ev.verify_frame_discipline()


# ---------------------------------------------------------------------------
# read-only served views
# ---------------------------------------------------------------------------

class TestCheckGraph:
    @pytest.fixture()
    def shard_graph(self, tmp_path):
        stream = stream_rmat(8, edge_factor=6, seed=2010, chunk_size=509)
        store = build_shard_store(stream, tmp_path / "s", 3)
        return ShardBackedGraph(store)

    def test_store_views_are_read_only(self, shard_graph):
        Sanitizer().check_graph(shard_graph)
        assert not shard_graph.out_indptr.flags.writeable
        store = shard_graph.store
        for s in range(store.num_shards):
            assert not store.shard_indices(s).flags.writeable
            assert not store.shard_indptr(s).flags.writeable

    def test_multi_shard_range_is_read_only(self, shard_graph):
        out = shard_graph.out_indices_range(0, shard_graph.num_edges)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1

    def test_writable_view_reported(self, shard_graph):
        writable = np.asarray(shard_graph.out_indptr).copy()
        shard_graph.out_indptr = writable
        with pytest.raises(SanitizerError, match="out_indptr"):
            Sanitizer().check_graph(shard_graph)

    def test_plain_graph_has_nothing_to_audit(self, tiny_graph):
        Sanitizer().check_graph(tiny_graph)  # no store attr: no-op


# ---------------------------------------------------------------------------
# opt-in plumbing + end-to-end bit identity
# ---------------------------------------------------------------------------

class TestEnablement:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled(True)
        assert not sanitize_enabled(False)

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(None)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled(None)
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize_enabled(None)
        # the flag still overrides a set environment
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert not sanitize_enabled(False)


def _strip_wall(snapshot):
    """Drop the real-time overhead counters that differ between any
    two runs (simulated metrics must match exactly)."""
    return {k: v for k, v in snapshot.items() if "wall" not in k}


class TestBitIdentity:
    def _run(self, graph, sanitize, fault_plan=None):
        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        return surfer.run_propagation(
            NetworkRankingPropagation(), iterations=3, sanitize=sanitize,
            fault_plan=fault_plan)

    def test_propagation_identical(self, tiny_graph):
        plain = self._run(tiny_graph, sanitize=False)
        sanitized = self._run(tiny_graph, sanitize=True)
        assert not sanitized.failed
        np.testing.assert_array_equal(plain.result, sanitized.result)
        assert (_strip_wall(plain.events.metrics.snapshot())
                == _strip_wall(sanitized.events.metrics.snapshot()))
        assert plain.metrics.response_time == sanitized.metrics.response_time

    def test_faulted_run_identical(self, tiny_graph):
        def plan():
            return FaultPlan().add_kill(2, 0.3)

        plain = self._run(tiny_graph, sanitize=False, fault_plan=plan())
        sanitized = self._run(tiny_graph, sanitize=True, fault_plan=plan())
        assert not sanitized.failed
        np.testing.assert_array_equal(plain.result, sanitized.result)
        assert (_strip_wall(plain.events.metrics.snapshot())
                == _strip_wall(sanitized.events.metrics.snapshot()))

    def test_mapreduce_identical(self, tiny_graph):
        def run(sanitize):
            surfer = Surfer(tiny_graph, make_test_cluster(4),
                            num_parts=8, seed=3)
            return surfer.run_mapreduce(NetworkRankingMapReduce(),
                                        rounds=2, sanitize=sanitize)

        plain, sanitized = run(False), run(True)
        assert not sanitized.failed
        np.testing.assert_array_equal(plain.result, sanitized.result)
        assert (_strip_wall(plain.events.metrics.snapshot())
                == _strip_wall(sanitized.events.metrics.snapshot()))

    def test_sanitizer_actually_observed_the_run(self, tiny_graph):
        surfer = Surfer(tiny_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        job = surfer.run_propagation(NetworkRankingPropagation(),
                                     iterations=2, sanitize=True)
        assert not job.failed
        # the hook path is live, not silently detached
        assert job.events.metrics.get("scheduler.tasks_executed") > 0
