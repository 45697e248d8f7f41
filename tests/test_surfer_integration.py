"""Integration tests for the Surfer facade."""

import numpy as np
import pytest

from repro.apps import NetworkRankingMapReduce, NetworkRankingPropagation
from repro.cluster.cluster import partitions_for_memory
from repro.core.surfer import (
    ALL_LEVELS,
    O1,
    O4,
    Surfer,
    default_num_parts,
)
from repro.errors import JobError
from tests.conftest import make_test_cluster


class TestConstruction:
    def test_default_num_parts(self):
        assert default_num_parts(32) == 64
        assert default_num_parts(24) == 64   # next power of two
        assert default_num_parts(1) == 2

    def test_layouts(self, small_graph):
        for layout in ("bandwidth-aware", "oblivious"):
            s = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                       layout=layout, seed=0)
            assert s.layout == layout
            assert s.num_parts == 8

    def test_rejects_unknown_layout(self, small_graph):
        with pytest.raises(JobError):
            Surfer(small_graph, make_test_cluster(4), num_parts=8,
                   layout="psychic")

    def test_same_partitions_across_layouts(self, small_graph):
        a = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                   layout="bandwidth-aware", seed=0)
        b = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                   layout="oblivious", seed=0)
        assert np.array_equal(a.plan.parts, b.plan.parts)

    def test_assignment_stays_on_replicas(self, shared_surfer):
        for p in range(shared_surfer.num_parts):
            assert (shared_surfer.assignment[p]
                    in shared_surfer.store.replicas(p))

    def test_replication_capped_by_machines(self, small_graph):
        s = Surfer(small_graph, make_test_cluster(2), num_parts=4,
                   replication=5, seed=0)
        assert len(s.store.replicas(0)) == 2

    def test_optimization_level_constants(self):
        assert len(ALL_LEVELS) == 4
        assert not O1.bandwidth_aware_layout and not O1.local_optimizations
        assert O4.bandwidth_aware_layout and O4.local_optimizations


class TestRuns:
    def test_propagation_and_mapreduce_share_cluster(self, small_graph):
        from repro.apps import NetworkRankingMapReduce
        s = Surfer(small_graph, make_test_cluster(4), num_parts=8, seed=0)
        prop = s.run_propagation(NetworkRankingPropagation())
        mr = s.run_mapreduce(NetworkRankingMapReduce())
        assert np.allclose(prop.result, mr.result)

    def test_determinism(self, small_graph):
        runs = []
        for _ in range(2):
            s = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                       seed=1)
            job = s.run_propagation(NetworkRankingPropagation(),
                                    iterations=2)
            runs.append(job)
        assert np.array_equal(runs[0].result, runs[1].result)
        assert (runs[0].metrics.response_time
                == runs[1].metrics.response_time)
        assert (runs[0].metrics.network_bytes
                == runs[1].metrics.network_bytes)

    def test_executions_recorded(self, small_graph):
        s = Surfer(small_graph, make_test_cluster(4), num_parts=8, seed=0)
        job = s.run_propagation(NetworkRankingPropagation())
        kinds = {e.task.kind for e in job.executions}
        assert kinds == {"transfer", "combine"}
        assert len(job.executions) == 2 * s.num_parts

    def test_memory_rule_partition_count(self):
        # the paper's setting: 128 GB graph, 2 GB memory budget
        assert partitions_for_memory(128 * 1024**3, 2 * 1024**3) == 64


class TestOneLaunchPath:
    @pytest.fixture(scope="class")
    def surfer(self, tiny_graph):
        return Surfer(tiny_graph, make_test_cluster(4), num_parts=8, seed=2)

    def test_app_class_picks_the_primitive(self, surfer):
        prop = surfer.run(NetworkRankingPropagation(), 2)
        assert [type(r).__name__ for r in prop.reports] == [
            "IterationReport"] * 2
        mr = surfer.run(NetworkRankingMapReduce(), 2)
        assert [type(r).__name__ for r in mr.reports] == ["RoundReport"] * 2
        assert np.allclose(prop.result, mr.result)

    def test_named_entry_points_are_run(self, surfer):
        a = surfer.run_propagation(NetworkRankingPropagation(),
                                   iterations=2, local_opts=False)
        b = surfer.run(NetworkRankingPropagation(), 2, local_opts=False)
        assert np.array_equal(a.result, b.result)
        assert a.metrics == b.metrics

    def test_option_of_the_other_primitive_is_rejected(self, surfer):
        with pytest.raises(JobError, match="frontier does not apply"):
            surfer.run(NetworkRankingMapReduce(), frontier=True)
        with pytest.raises(JobError, match="cascaded does not apply"):
            surfer.run_mapreduce(NetworkRankingMapReduce(), cascaded=True)
        with pytest.raises(JobError, match="combiner does not apply"):
            surfer.run(NetworkRankingPropagation(), combiner=True)

    def test_step_count_errors_keep_their_names(self, surfer):
        with pytest.raises(JobError, match="iterations must be >= 1"):
            surfer.run_propagation(NetworkRankingPropagation(), 0)
        with pytest.raises(JobError, match="rounds must be >= 1"):
            surfer.run_mapreduce(NetworkRankingMapReduce(), rounds=0)

    def test_rejects_a_non_app(self, surfer):
        with pytest.raises(JobError, match="neither"):
            surfer.run(object())
