"""Shape tests for the experiment functions, on a reduced workload.

These assert the *qualitative* reproduction targets (who wins, which way
the gaps point) quickly; the full-size shapes are each experiment's
``check`` in ``repro.bench.experiments.EXPERIMENTS``, run by
``python -m repro experiment all``.
"""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    cascaded_propagation_experiment,
    fig7_mr_vs_prop,
    fig10_fault_tolerance,
    fig11_xl,
    make_app,
    table1_partitioning,
    table4_loc,
    table5_ier,
)
from repro.bench.workloads import (
    SCALED_LINK_BPS,
    Workload,
    make_cluster,
)
from repro.cluster.topology import t1
from repro.graph.generators import composite_social_graph


@pytest.fixture(scope="module")
def small_workload():
    graph = composite_social_graph(
        num_communities=8, community_size=128, k=6, seed=99
    )
    return Workload(graph=graph,
                    cluster=make_cluster(t1(8, SCALED_LINK_BPS)),
                    num_parts=16, seed=99)


class TestTable1:
    def test_shape(self):
        table = table1_partitioning(num_machines=16, num_levels=5)
        parmetis = dict(zip(table.columns, table.rows[0][1]))
        aware = dict(zip(table.columns, table.rows[1][1]))
        assert aware["T1"] == parmetis["T1"]
        assert aware["T2(2,1)"] < parmetis["T2(2,1)"]
        assert aware["T2(4,1)"] < parmetis["T2(4,1)"]

    def test_deterministic(self):
        a = table1_partitioning(num_machines=16, num_levels=4, seed=1)
        b = table1_partitioning(num_machines=16, num_levels=4, seed=1)
        assert a.rows == b.rows


class TestTable4:
    def test_propagation_smaller_than_mapreduce(self):
        table = table4_loc()
        prop = table.rows[0][1]
        mr = table.rows[1][1]
        assert sum(prop) < sum(mr)
        assert all(p <= m for p, m in zip(prop, mr))

    def test_paper_rows_included(self):
        table = table4_loc()
        labels = [label for label, __ in table.rows]
        assert "Hadoop (paper)" in labels


class TestTable5:
    def test_shape(self, small_workload):
        table = table5_ier(small_workload.graph,
                           num_parts_list=(16, 8, 4), seed=0)
        ours = table.rows[0][1]
        rand = table.rows[1][1]
        assert ours == sorted(ours)  # fewer parts, higher ier
        assert all(o > r for o, r in zip(ours, rand))


class TestFig7:
    def test_propagation_wins_where_expected(self, small_workload):
        result = fig7_mr_vs_prop(small_workload, apps=("NR", "VDD"))
        series = result["apps"]
        assert series["NR"]["speedup"] > 1.0
        assert series["NR"]["net_reduction_pct"] > 30.0
        assert 0.5 <= series["VDD"]["speedup"] <= 2.0
        # the printed records are NR's: both engines, then the ladder
        records = result["records"]
        assert list(records) == ["fig7_nr_propagation", "fig7_nr_mapreduce",
                                 "fig7_nr_mr_naive", "fig7_nr_mr_combiner"]
        prop = records["fig7_nr_propagation"]
        assert prop["network_bytes"] == series["NR"]["prop_net"]
        net = {key: row["network"] for key, row in result["ladder"].items()}
        assert net["mr_combiner"] < net["mr_naive"]
        assert net["mapreduce"] == records["fig7_nr_mapreduce"]["network_bytes"]


class TestCascade:
    def test_identical_results_and_savings(self, small_workload):
        result = cascaded_propagation_experiment(small_workload,
                                                 iterations=(3,))
        r = result["iterations"][3]
        assert 0 <= result["v_k_ratio"] <= 1
        assert r["cascaded_disk"] <= r["plain_disk"]
        assert r["cascaded_time"] <= r["plain_time"] * 1.001


class TestFig10:
    def test_recovery(self, small_workload):
        result = fig10_fault_tolerance(small_workload, iterations=2)
        assert result["faulty_response"] >= result["normal_response"]
        assert result["failures"] + result["retries"] >= 1
        assert result["overhead_pct"] < 100.0


class TestOptimizationLevels:
    def test_o_levels_ordered_for_nr(self, small_workload):
        """The headline shape: O4 strictly beats O1 on time and I/O."""
        results = {}
        for layout, local in (("oblivious", False),
                              ("bandwidth-aware", True)):
            surfer = small_workload.surfer(layout)
            job = surfer.run_propagation(make_app("NR", "propagation"),
                                         iterations=1, local_opts=local)
            results[(layout, local)] = job
        o1 = results[("oblivious", False)]
        o4 = results[("bandwidth-aware", True)]
        assert o4.metrics.response_time < o1.metrics.response_time
        assert o4.metrics.network_bytes <= o1.metrics.network_bytes
        assert o4.metrics.disk_bytes < o1.metrics.disk_bytes


class TestFig11XL:
    def test_out_of_core_records_carry_peak_rss(self):
        """The XL pipeline end to end at R-MAT scale 8: streamed store,
        range plan whose partitions alias the shards, NR and frontier
        BFS, each record with its measured peak RSS."""
        from repro.bench.memory import current_rss_bytes

        records = fig11_xl(rmat_scale=8, edge_factor=4, seed=7)
        assert set(records) == {"fig11_xl_nr", "fig11_xl_bfs"}
        fields = {"makespan_s", "machine_time_s", "network_bytes",
                  "disk_bytes", "messages_shipped", "tasks", "wall_clock_s"}
        for r in records.values():
            assert fields <= set(r) <= fields | {"peak_rss_bytes",
                                                 "rss_degraded"}
            # bool is an int subclass; True/False are not measurements
            assert all(type(r[f]) in (int, float) and r[f] >= 0
                       for f in set(r) - {"rss_degraded"})
            assert r.get("rss_degraded", True) is True
        assert all(r["messages_shipped"] > 0 for r in records.values())
        if current_rss_bytes() is not None:
            assert all(r["peak_rss_bytes"] > 0 for r in records.values())
        assert EXPERIMENTS["fig11_xl"].check(records) == []
