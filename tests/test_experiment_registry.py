"""Unit tests for the paper-fidelity registry behind ``repro experiment``.

No experiment is *run* here (``python -m repro experiment all`` takes
minutes): every :data:`~repro.bench.experiments.EXPERIMENTS` entry is fed
a small hand-built result.  A paper-shaped one must check clean and
render under its title; a deliberately wrong one must make ``check`` name
the broken shape and the CLI exit 1.  The committed
``benchmarks/results/<name>.txt`` are the simulated-cost baseline: the
two experiments that need no graph (``table1``, ``table4``) and the
cheap entries that print ``repro-bench/v1`` records are run here and
held byte-identical to them, and a one-unit move of any recorded cost
must change the rendered table.
"""

import copy
import dataclasses
import pathlib
import re

import numpy as np
import pytest

from repro.apps import APP_ORDER
from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import ExperimentTable
from repro.cli import main as cli_main
from repro.errors import BenchRunError

REPO = pathlib.Path(__file__).resolve().parent.parent
TOPOLOGIES = ["T1", "T2(2,1)", "T2(4,1)", "T2(4,2)", "T3"]
LEVELS = ("O1", "O2", "O3", "O4")


def table(title, columns, rows):
    return ExperimentTable(title=title, columns=list(columns),
                           rows=[(label, list(v)) for label, v in rows])


def app_table(title, metrics, per_level):
    """An app x O-level table with the same two cells for every app."""
    return table(title,
                 [f"{a}.{m}" for a in APP_ORDER for m in metrics],
                 [(o, per_level[o] * len(APP_ORDER)) for o in LEVELS])


def set_cell(tbl, row, column, value):
    values = dict(tbl.rows)[row]
    values[tbl.columns.index(column)] = value


def placement(oblivious, aware):
    return {"oblivious": oblivious, "bandwidth-aware": aware,
            "improvement_pct": 100.0 * (1 - aware / oblivious)}


def fault_scenario(response, completed=True, rerepl=0, **events):
    return {"response": response, "completed": completed,
            "re_replication_bytes": rerepl,
            "events": {k.replace("_", "-"): v for k, v in events.items()}}


def bench_record(**overrides):
    """A record as ``job_record`` stores it: seconds to 6 decimals."""
    return {"makespan_s": 1911.122489, "machine_time_s": 5706.461511,
            "network_bytes": 437632, "disk_bytes": 2960672,
            "messages_shipped": 500, "tasks": 64,
            "wall_clock_s": 0.05} | overrides


def records(*names):
    return {name: bench_record() for name in names}


def app_row(prop_time, mr_time, prop_net, mr_net):
    return {"prop_time": prop_time, "mr_time": mr_time,
            "speedup": mr_time / prop_time, "prop_net": prop_net,
            "mr_net": mr_net,
            "net_reduction_pct": 100.0 * (1 - prop_net / mr_net)}


def ladder(**network):
    return {key: {"network": net,
                  "shuffle": None if key == "propagation" else net // 2}
            for key, net in network.items()}


#: name -> (title fragment, paper-shaped result, mutation that breaks one
#: shape, fragment of the line ``check`` must then report)
CASES = {
    "table1": (
        "Table 1",
        table("Table 1: elapsed time of partitioning (hours)", TOPOLOGIES,
              [("ParMetis-like", [0.5, 2.0, 2.6, 2.4, 0.6]),
               ("Bandwidth aware", [0.5, 1.0, 1.3, 1.1, 0.6])]),
        lambda t: set_cell(t, "Bandwidth aware", "T2(2,1)", 2.5),
        "T2(2,1): bandwidth-aware never slower than ParMetis"),
    "table2": (
        "Table 2",
        app_table("Table 2: response / total machine time", ("Res", "Total"),
                  {"O1": [100.0, 1000.0], "O2": [95.0, 990.0],
                   "O3": [60.0, 700.0], "O4": [50.0, 650.0]}),
        lambda t: set_cell(t, "O4", "NR.Res", 200.0),
        "NR: the full optimization stack wins, O4 < O1"),
    "table3": (
        "Table 3",
        app_table("Table 3: network / disk I/O", ("Net", "Disk"),
                  {"O1": [1000, 5000], "O2": [800, 5000],
                   "O3": [600, 3000], "O4": [400, 3000]}),
        lambda t: set_cell(t, "O3", "NR.Disk", 9000),
        "NR: local optimizations cut disk I/O"),
    "table4": (
        "Table 4",
        table("Table 4: source lines in user-defined functions", APP_ORDER,
              [("Propagation (ours)", [3, 8, 3, 3, 12, 4]),
               ("MapReduce (ours)", [8, 15, 20, 4, 16, 10])]),
        lambda t: set_cell(t, "Propagation (ours)", "NR", 30),
        "NR: propagation never needs more UDF lines than MapReduce"),
    "table5": (
        "Table 5",
        table("Table 5: inner edge ratio (%)", ["128", "64", "32", "16"],
              [("ours", [40.0, 55.0, 70.0, 80.0]),
               ("random", [1.0, 2.0, 3.0, 6.0])]),
        lambda t: set_cell(t, "ours", "32", 50.0),
        "inner edge ratio is monotone"),
    "fig6": (
        "Figure 6",
        {"T1": placement(220.0, 200.0), "T2(2,1)": placement(2700.0, 1400.0),
         "T2(4,1)": placement(2300.0, 1600.0),
         "T2(4,2)": placement(2000.0, 1500.0), "T3": placement(300.0, 295.0)},
        lambda s: s.update({"T2(2,1)": placement(2700.0, 3000.0)}),
        "T2(2,1): bandwidth-aware placement wins strongly"),
    "fig7": (
        "Figure 7",
        {"apps": {app: app_row(100.0, 300.0, 1000.0, 5000.0)
                  for app in APP_ORDER}
         | {"VDD": app_row(100.0, 90.0, 1000.0, 1000.0)},
         "ladder": ladder(mapreduce=700, mr_naive=2000, mr_combiner=700,
                          propagation=150),
         "precombine_bytes": 1900, "combine_reduction": 0.73,
         "records": records("fig7_nr_propagation", "fig7_nr_mapreduce",
                            "fig7_nr_mr_naive", "fig7_nr_mr_combiner")},
        lambda r: r["apps"]["NR"].update(prop_time=400.0, speedup=0.75),
        "NR: propagation is faster than MapReduce"),
    "cascade": (
        "Cascaded propagation",
        {"v_k_ratio": 0.2, "d_min": 4, "iterations": {
            3: {"plain_time": 600.0, "cascaded_time": 550.0,
                "time_saving_pct": 8.3, "plain_disk": 6000.0,
                "cascaded_disk": 5700.0, "disk_saving_pct": 5.0}}},
        lambda r: r["iterations"][3].update(time_saving_pct=-5.0),
        "3 iterations: cascading never slows the job"),
    "fig9": (
        "Figure 9",
        {2: placement(280.0, 230.0), 128: placement(10000.0, 5000.0)},
        lambda s: s.update({128: placement(10000.0, 9000.0)}),
        "the bandwidth-aware advantage widens as the delay grows"),
    "fig10": (
        "Figure 10",
        {"victim": 1, "kill_time": 30.0, "normal_response": 100.0,
         "faulty_response": 110.0, "overhead_pct": 10.0, "failures": 1,
         "retries": 2,
         "faulty_timeline": (np.array([0.0, 20.0, 40.0, 60.0]),
                             np.array([5.0, 5.0, 0.0, 3.0]))},
        lambda r: r.update(faulty_response=180.0, overhead_pct=80.0),
        "recovery costs something but stays moderate"),
    "fault_sweep": (
        "Fault scenarios",
        {"victim": 1, "baseline_response": 100.0, "scenarios": {
            "kill": fault_scenario(103.0, rerepl=64, machine_down=1),
            "kill-pipelined": fault_scenario(80.0, rerepl=64, redispatch=6),
            "transient": fault_scenario(109.0, machine_down=1,
                                        machine_recovered=1),
            "straggler": fault_scenario(270.0),
            "straggler-spec": fault_scenario(230.0, spec_win=6),
            "double-kill": fault_scenario(103.0, rerepl=128,
                                          machine_down=2)}},
        lambda r: r["scenarios"]["transient"].update(
            re_replication_bytes=10),
        "transient: recovery does not touch storage"),
    "fig11": (
        "Figure 11",
        {"response": {8: 130.0, 16: 125.0, 24: 180.0, 32: 197.0},
         "records": records(*(f"fig11_nr_{m}_machines"
                              for m in (8, 16, 24, 32)))},
        lambda r: r["response"].update({32: 400.0}),
        "weak scaling: response time stays within a 2x band"),
    "fig12": (
        "Figure 12",
        {8: {"prop_time": 870.0, "mr_time": 1760.0, "speedup": 2.02},
         32: {"prop_time": 200.0, "mr_time": 620.0, "speedup": 3.1}},
        lambda s: s[8].update(mr_time=870.0, speedup=1.0),
        "8 machines: propagation beats MapReduce"),
    "ablation_partitioner": (
        "Partitioner ablation",
        {"full (GGGP + FM + k-way)": {"ier": 86.8, "imbalance": 1.05},
         "no FM refinement": {"ier": 70.4, "imbalance": 1.05},
         "random initial bisection": {"ier": 82.6, "imbalance": 1.05},
         "no k-way balance pass": {"ier": 88.9, "imbalance": 1.48}},
        lambda r: r["no FM refinement"].update(ier=95.0),
        "FM refinement buys cut quality"),
    "ablation_placement": (
        "Placement ablation",
        {"bandwidth-aware (full)": {"response": 197.0, "network": 155000.0},
         "oblivious scatter": {"response": 219.0, "network": 180000.0}},
        lambda r: r["bandwidth-aware (full)"].update(network=190000.0),
        "co-location removes network traffic"),
    "ablation_cascade": (
        "Cascading phase-length sweep",
        {"no cascading": {"disk": 8200.0, "saving_pct": 0.0,
                          "identical": True},
         "phase length 1": {"disk": 8200.0, "saving_pct": 0.0,
                            "identical": True},
         "phase length 4": {"disk": 7850.0, "saving_pct": 4.3,
                            "identical": True}},
        lambda r: r["phase length 4"].update(identical=False),
        "phase length 4: cascading leaves the NR result unchanged"),
    "ablation_partition_size": (
        "Partition-size sweep",
        {8: {"response": 1300.0, "ier": 92.0, "penalized_tasks": 16},
         64: {"response": 197.0, "ier": 55.0, "penalized_tasks": 0},
         256: {"response": 195.0, "ier": 26.0, "penalized_tasks": 0}},
        lambda r: r[64].update(penalized_tasks=3),
        "P=64: the paper's default fits in memory"),
    "ablation_pipelining": (
        "Pipelined vs serial",
        {"NR": {"serial": 197.0, "pipelined": 129.0, "speedup": 1.53,
                "same_disk": True}},
        lambda r: r["NR"].update(pipelined=220.0, speedup=0.9),
        "NR: overlap can only help"),
    "transfer_fastpath": (
        "Transfer + route + Combine",
        {"edges": 1000, "parts": 8, "scalar_s": 0.18, "vec_s": 0.03,
         "identical": True},
        lambda r: r.update(vec_s=0.1),
        "the vectorized path is >= 3x faster"),
    "mr_fastpath": (
        "MapReduce round",
        {"edges": 1000, "parts": 8, "scalar_s": 0.17, "vec_s": 0.04,
         "identical": True},
        lambda r: r.update(identical=False),
        "scalar and vectorized implementations produce identical"),
    "chaos_smoke": (
        "chaos sweep",
        {"summary": "chaos sweep: 12 schedules (seed 2010)", "ok": True,
         "wall_s": 5.0, "baseline_makespan": 100.0,
         "restarted_makespan": 150.0,
         "records": records("chaos_nr_baseline", "chaos_nr_restarted")},
        lambda r: r.update(restarted_makespan=None),
        "a restarted schedule completes"),
    "delta_pr": (
        "delta-PageRank frontier tail vs dense NR",
        {"delta_pr_frontier": bench_record(messages_shipped=4593),
         "delta_pr_dense_nr": bench_record(messages_shipped=34424)},
        lambda r: r["delta_pr_dense_nr"].update(messages_shipped=9000),
        "dense NR ships >= 5x the delta-PageRank frontier tail's messages"),
    "traversal_bfs": (
        "BFS: sparse frontier vs dense propagation",
        {"traversal_bfs_dense": bench_record(messages_shipped=595,
                                             disk_bytes=291480),
         "traversal_bfs_frontier": bench_record(messages_shipped=595,
                                                disk_bytes=118308)},
        lambda r: r["traversal_bfs_frontier"].update(disk_bytes=300000),
        "the frontier Transfer reads fewer disk bytes"),
    "fig11_xl": (
        "Out-of-core XL",
        {"fig11_xl_nr": bench_record(peak_rss_bytes=340_000_000),
         "fig11_xl_bfs": bench_record(peak_rss_bytes=342_000_000)},
        lambda r: r["fig11_xl_bfs"].update(peak_rss_bytes=2_000_000_000),
        "fig11_xl_bfs: peak RSS stays <= 0.8 GB"),
}


def broken(name):
    _, good, mutate, _ = CASES[name]
    result = copy.deepcopy(good)
    mutate(result)
    return result


def test_every_entry_has_a_case():
    assert set(CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", list(CASES))
def test_paper_shaped_result_reproduces(name):
    title, good, _, _ = CASES[name]
    exp = EXPERIMENTS[name]
    assert exp.name == name and exp.paper
    assert exp.check(good) == []
    assert title in exp.render(good)


@pytest.mark.parametrize("name", list(CASES))
def test_wrong_result_names_the_shape_and_fails_the_cli(
        name, monkeypatch, capsys):
    shape = CASES[name][3]
    exp = EXPERIMENTS[name]
    result = broken(name)
    reported = exp.check(result)
    assert any(shape in line for line in reported), reported

    monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(
        exp, run=lambda: result))
    assert cli_main(["experiment", name]) == 1
    captured = capsys.readouterr()
    assert f"BROKEN SHAPE [{name}]" in captured.out
    assert shape in captured.out
    assert "broken shape(s)" in captured.err


def test_check_collects_every_broken_shape():
    """A partitioner PR sees everything it broke, not the first assert."""
    result = copy.deepcopy(CASES["table1"][1])
    for topo in ("T2(2,1)", "T2(4,1)"):
        set_cell(result, "Bandwidth aware", topo, 3.0)
    reported = EXPERIMENTS["table1"].check(result)
    assert sum("T2(2,1)" in line for line in reported) == 2
    assert sum("T2(4,1)" in line for line in reported) == 2


def test_registry_names_match_design_index():
    """DESIGN.md section 5 lists exactly the registry's experiments."""
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 5. Experiment index")[1].split("\n## ")[0]
    listed = re.findall(r"\| `(\w+)` \|$", section, flags=re.MULTILINE)
    assert listed == list(EXPERIMENTS)


@pytest.mark.parametrize("name", ["table1", "table4"])
def test_committed_results_are_what_the_code_renders(name):
    """The drift guard: ``benchmarks/results`` is regenerated with
    ``repro experiment all --out benchmarks/results``, never by hand."""
    exp = EXPERIMENTS[name]
    committed = REPO / "benchmarks" / "results" / f"{name}.txt"
    assert exp.render(exp.run()) + "\n" == committed.read_text(
        encoding="utf-8")


def test_committed_results_cover_the_registry():
    results = {p.stem
               for p in (REPO / "benchmarks" / "results").glob("*.txt")}
    assert results == set(EXPERIMENTS)


class TestWritesOnlyWithOut:
    def test_no_file_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["experiment", "table4"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_out_writes_exactly_the_named_tables(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["experiment", "table4", "--out", "d"]) == 0
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == ["d/table4.txt"]
        committed = REPO / "benchmarks" / "results" / "table4.txt"
        assert (tmp_path / "d" / "table4.txt").read_bytes() == (
            committed.read_bytes())


# ----------------------------------------------------------------------
# The simulated-cost baseline: the committed tables
# ----------------------------------------------------------------------
#: the six simulated costs of a record, each printed in full
COSTS = ("makespan_s", "machine_time_s", "network_bytes", "disk_bytes",
         "messages_shipped", "tasks")


def records_in(result):
    """Every ``repro-bench/v1`` record anywhere in a hand-built result."""
    if isinstance(result, dict):
        if all(field in result for field in COSTS):
            yield result
            return
        for value in result.values():
            yield from records_in(value)


@pytest.mark.parametrize("field", COSTS)
@pytest.mark.parametrize("name", ["fig7", "fig11", "chaos_smoke", "delta_pr",
                                  "traversal_bfs", "fig11_xl"])
def test_a_one_unit_cost_move_changes_the_table(name, field):
    """The byte diff against ``benchmarks/results/`` is the cost gate, so
    the table must show the smallest move ``job_record`` can store: +1 on
    a count or byte total, +1e-6 on a simulated-seconds field."""
    result = copy.deepcopy(CASES[name][1])
    render = EXPERIMENTS[name].render
    before = render(result)
    assert any(records_in(result))
    for record in records_in(result):
        kept = record[field]
        unit = 1 if isinstance(kept, int) else 1e-6
        record[field] = round(kept + unit, 6)
        assert render(result) != before, (name, field)
        record[field] = kept


@pytest.mark.parametrize("name", ["chaos_smoke", "delta_pr", "traversal_bfs"])
def test_cheap_entries_pass_the_simulated_cost_gate(name, tmp_path, capsys):
    """Tier-1 runs the record-producing entries that take well under a
    second and diffs ``--out`` against the committed table, so a drift
    in a simulated cost (a restart path that re-restores too much, a
    frontier that reads too much) fails here, not only in CI."""
    code = cli_main(["experiment", name, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert f"shape reproduced [{name}]" in out
    committed = REPO / "benchmarks" / "results" / f"{name}.txt"
    assert (tmp_path / f"{name}.txt").read_bytes() == committed.read_bytes()


class TestGateAndBless:
    """A job that fails or does not reconcile has no cost to print."""

    def test_a_failed_job_is_a_broken_shape(self, monkeypatch, capsys):
        def run():
            raise BenchRunError("failed: machine 3 lost its only replica")
        monkeypatch.setitem(EXPERIMENTS, "table4", dataclasses.replace(
            EXPERIMENTS["table4"], run=run))
        assert cli_main(["experiment", "table4"]) == 1
        out = capsys.readouterr().out
        assert "BROKEN SHAPE [table4]: failed: machine 3" in out
