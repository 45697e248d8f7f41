"""Unit tests for the home-grown MapReduce engine."""

import pytest

from repro.core.surfer import Surfer
from repro.mapreduce.api import MapReduceApp
from repro.hashing import stable_hash
from tests.conftest import make_test_cluster


class _WordCountApp(MapReduceApp):
    """Counts out-degrees per vertex via plain map/reduce."""

    name = "degree-count"

    def setup(self, pgraph):
        class State:
            values = {}
        return State()

    def map(self, partition, pgraph, state, emit):
        src, dst = pgraph.partition_edges(partition)
        for u in src:
            emit(int(u), 1)

    def reduce(self, key, values, state, emit):
        emit(key, sum(values))

    def finalize(self, state):
        return state.values


class TestReducerOf:
    """The shuffle sends key ``k`` to reducer ``stable_hash(k) % R``."""

    def test_in_range(self):
        for key in range(200):
            assert 0 <= stable_hash(key) % 7 < 7

    def test_deterministic_and_spread(self):
        buckets = {stable_hash(k) % 8 for k in range(100)}
        assert len(buckets) == 8

    def test_string_keys(self):
        assert stable_hash("abc") % 4 == stable_hash("abc") % 4


class TestEngine:
    @pytest.fixture()
    def surfer(self, small_graph):
        return Surfer(small_graph, make_test_cluster(4), num_parts=8,
                      seed=5)

    def test_wordcount_correct(self, small_graph, surfer):
        result = surfer.run_mapreduce(_WordCountApp())
        deg = small_graph.out_degrees()
        for v in range(small_graph.num_vertices):
            if deg[v]:
                assert result.result[v] == deg[v]

    def test_all_stages_present(self, surfer):
        job = surfer.run_mapreduce(_WordCountApp())
        report = job.reports[0]
        assert report.map_records == surfer.graph.num_edges
        assert report.shuffle_bytes > 0
        assert report.elapsed > 0

    def test_shuffle_mostly_remote(self, surfer):
        """Hash shuffle sends ~ (R-1)/R of the data across machines."""
        job = surfer.run_mapreduce(_WordCountApp())
        report = job.reports[0]
        remote_fraction = report.network_bytes / report.shuffle_bytes
        assert remote_fraction > 0.5

    def test_multiple_rounds_accumulate_io(self, surfer):
        one = surfer.run_mapreduce(_WordCountApp(), rounds=1)
        two = surfer.run_mapreduce(_WordCountApp(), rounds=2)
        assert two.metrics.disk_bytes > one.metrics.disk_bytes

    def test_reduce_runs_on_every_machine(self, surfer):
        job = surfer.run_mapreduce(_WordCountApp())
        reduce_machines = {
            e.machine for e in job.events.task_spans()
            if e.task.kind == "reduce"
        }
        assert reduce_machines == set(range(4))

    def test_rejects_zero_rounds(self, surfer):
        from repro.errors import JobError
        with pytest.raises(JobError):
            surfer.run_mapreduce(_WordCountApp(), rounds=0)

    def test_writeback_adds_network(self, small_graph):
        class Plain(_WordCountApp):
            writeback_to_partitions = False

        class WriteBack(_WordCountApp):
            writeback_to_partitions = True

        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=5)
        plain = surfer.run_mapreduce(Plain())
        wb = surfer.run_mapreduce(WriteBack())
        assert wb.metrics.network_bytes > plain.metrics.network_bytes
