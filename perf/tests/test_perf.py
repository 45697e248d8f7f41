"""The benchmark's own tests (not collected by the repo's tier-1 run).

    PYTHONPATH=src python -m pytest perf/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import compare, harness, workloads
from perf.trace import TARGETS, Target, Tracer, _resolve

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
E2E_NAMES = {m["name"] for m in SPEC["end_to_end"]}
LAYER_NAMES = {m["name"] for m in SPEC["per_layer"]}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY_SECONDS = 0.2


def tiny(name: str, trace: bool, **kwargs):
    return harness.run_workload(name, 7, TINY_SECONDS, trace,
                                sizes=workloads.TINY, **kwargs)


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload once untraced and once traced, tiny preset."""
    return {(name, trace): tiny(name, trace)
            for name in NAMES for trace in (False, True)}


# -- BENCHMARK.json against the driver's contract ----------------------
def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 for part in SPEC["command"])
    assert SPEC["paths"] == ["perf"] and (REPO / "perf").is_dir()
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    named = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [item["name"] for item in named]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_declaration():
    assert list(workloads.WORKLOADS) == NAMES


# -- the four workloads, end to end ------------------------------------
def test_tiny_runs_are_correct_and_complete(tiny_runs):
    for (name, trace), result in tiny_runs.items():
        assert result.failures == [], (name, trace)
        assert result.attempted >= 3
        assert result.missing_targets == []
        assert set(result.end_to_end) == E2E_NAMES, name
        assert all(value > 0 for value in result.end_to_end.values()), name
        if trace:
            assert set(result.per_layer) <= LAYER_NAMES, name
            assert result.per_layer["trace.spans"] > 0


def test_every_declared_layer_metric_is_produced_somewhere(tiny_runs):
    produced = set()
    for (_, trace), result in tiny_runs.items():
        produced |= {k for k, v in result.per_layer.items() if v != 0}
    # zero on a fault-free, fully-resolving run
    quiet = {"runtime.task_failures", "trace.missing_targets"}
    assert LAYER_NAMES - produced <= quiet


def test_layers_show_up_where_the_workload_puts_them(tiny_runs):
    social = tiny_runs[("social_ba_apps", True)].per_layer
    assert social["partitioning.bisect_s"] > 0
    assert social["partitioning.bisections"] == 3  # 4 parts
    assert social["runtime.retries"] > 0 and social["runtime.recovery_job_s"] > 0
    assert social["core.o1_over_o4_makespan"] > 1
    assert social["mapreduce.over_prop_network_bytes"] > 1
    nr = tiny_runs[("rmat_ooc_nr", True)].per_layer
    assert nr.get("partitioning.bisect_s", 0) == 0
    assert nr["graph.store_build_s"] > 0 and nr["graph.stream_s"] > 0
    assert nr["propagation.messagebox_add_calls"] > 0
    assert nr["propagation.combine_calls"] > 0
    assert nr["propagation.transfer_array_calls"] > 0
    assert nr.get("mapreduce.round_s", 0) == 0
    bfs = tiny_runs[("rmat_ooc_bfs", True)].per_layer
    assert bfs["propagation.frontier_active"] > 0
    mr = tiny_runs[("rmat_mem_mr", True)].per_layer
    assert mr["mapreduce.round_s"] > 0 and mr["graph.generate_s"] > 0
    assert mr.get("propagation.iteration_s", 0) == 0
    assert mr.get("propagation.rss_bytes_per_edge", 0) == 0


def test_exact_metrics_repeat(tiny_runs):
    exact = ("sim_makespan_s", "sim_machine_time_s", "sim_network_bytes",
             "sim_disk_bytes", "inner_edge_ratio", "part_imbalance")
    count_metrics = {m["name"] for m in SPEC["per_layer"]
                     if m["unit"] == "count"}
    for name in NAMES:
        first = tiny_runs[(name, False)]
        traced = tiny_runs[(name, True)]
        again = tiny(name, True)
        assert first.counts == traced.counts == again.counts
        for metric in exact:
            assert (first.end_to_end[metric] == traced.end_to_end[metric]
                    == again.end_to_end[metric])
        for metric in count_metrics & set(traced.per_layer):
            assert traced.per_layer[metric] == again.per_layer[metric]


def test_corrupted_result_is_counted_as_failed():
    def corrupt(runs):
        runs["apps.NR.mapreduce"].job.result[0] += 1.0

    result = tiny("rmat_mem_mr", False, corrupt=corrupt)
    assert result.failures == ["check NR.mapreduce == pagerank"]


def test_failed_job_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(harness.events, "reconcile",
                        lambda job: ["makespan: events=1 vs cluster=2"])
    result = tiny("rmat_ooc_bfs", False)
    assert result.failed >= 2  # warm-up and every timed job list
    assert all("makespan" in failure for failure in result.failures)


# -- the tracer --------------------------------------------------------
def originals():
    return [_resolve(target)[2] for target in TARGETS]


def test_wrappers_are_removed_again():
    from repro.partitioning import bisect, refine

    before = originals()
    tracer = Tracer("t")
    tracer.install()
    try:
        assert tracer.active and tracer.missing == []
        assert refine.fm_refine is not before[9]
        # the ``from x import y`` reference moved with it
        assert bisect.fm_refine is refine.fm_refine
    finally:
        tracer.uninstall()
    assert not tracer.active
    assert all(a is b for a, b in zip(before, originals()))
    assert bisect.fm_refine is before[9]
    tiny("social_ba_apps", True)
    assert all(a is b for a, b in zip(before, originals()))


def test_wrappers_are_removed_when_the_run_raises(monkeypatch):
    before = originals()
    spec = workloads.WORKLOADS["rmat_mem_mr"]
    monkeypatch.setattr(spec, "run_jobs",
                        lambda *args: (_ for _ in ()).throw(KeyError("x")))
    with pytest.raises(KeyError):
        tiny("rmat_mem_mr", True)
    assert all(a is b for a, b in zip(before, originals()))


def test_missing_target_is_reported_not_fatal(monkeypatch):
    gone = (Target("partitioning.kway_balance", "repro.partitioning.kway",
                   "deleted_by_a_refactor"),
            Target("propagation.messagebox_add_calls",
                   "repro.propagation.no_such_module", "MessageBox.add",
                   count_only=True))
    kept = tuple(t for t in TARGETS
                 if t.name not in {g.name for g in gone})
    monkeypatch.setattr(harness, "Tracer",
                        lambda name: Tracer(name, targets=kept + gone))
    result = tiny("social_ba_apps", True)
    assert result.failures == []
    assert result.missing_targets == [str(g) for g in gone]
    assert result.per_layer["trace.missing_targets"] == 2
    assert result.per_layer["partitioning.kway_balance_s"] == 0
    assert result.per_layer["partitioning.fm_refine_s"] > 0


def test_self_time_and_span_file(tmp_path):
    tracer = Tracer("t")
    with tracer.rep("job", 0):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    stats = tracer.aggregate()[("job", 0)]
    assert stats["outer"].total >= stats["inner"].total
    assert stats["outer"].self_time == pytest.approx(
        stats["outer"].total - stats["inner"].total)
    path = tmp_path / "spans.json"
    tracer.write(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["bench.job", "outer", "inner"]
    assert events[2]["args"]["parent"] == events[1]["args"]["id"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# -- the command line --------------------------------------------------
def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_the_contract_line():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_cli(REPO, "--workload", "rmat_mem_mr", "--seed", "3",
                       "--seconds", str(TINY_SECONDS), "--trace", trace,
                       "--tiny")
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
        assert all(isinstance(v["value"], float)
                   for v in last["metrics"].values())


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli(tmp_path, "--workload", "rmat_mem_mr", "--seed", "3",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_suite_and_compare(tmp_path):
    out = tmp_path / "a.json"
    done = run_cli(REPO, "--workload", "rmat_ooc_bfs", "--seed", "5",
                   "--seconds", str(TINY_SECONDS), "--tiny",
                   "--out", str(out))
    assert done.returncode == 0, done.stderr + done.stdout
    doc = json.loads(out.read_text())
    assert doc["schema"] == "perf-results/v1"
    assert {"commit", "seed", "nproc", "python", "numpy",
            "platform"} <= set(doc["provenance"])
    run = doc["workloads"]["rmat_ooc_bfs"]
    assert run["failures"] == [] and run["end_to_end"] and run["per_layer"]
    spans = tmp_path / "a.rmat_ooc_bfs.spans.json"
    assert json.loads(spans.read_text())["traceEvents"]
    assert compare.main(SPEC, str(out), str(out)) == 0

    worse = json.loads(out.read_text())
    worse["workloads"]["rmat_ooc_bfs"]["end_to_end"]["sim_disk_bytes"] *= 1.5
    worse["workloads"]["rmat_ooc_bfs"]["counts"]["network.transfers"] += 1
    other = tmp_path / "b.json"
    other.write_text(json.dumps(worse))
    assert compare.main(SPEC, str(out), str(other)) == 1


def test_compare_verdicts():
    assert compare.verdict(10.0, 10.9, "lower", 0.1, 0.0)[1] == "ok"
    assert compare.verdict(10.0, 11.5, "lower", 0.1, 0.0)[1] == "worse"
    assert compare.verdict(10.0, 5.0, "lower", 0.1, 0.0)[1] == "ok"
    assert compare.verdict(10.0, 8.0, "higher", 0.1, 0.0)[1] == "worse"
    assert compare.verdict(10.0, 10.1, "lower", 0.1, 0.3)[1] == "unresolved"
    change, _ = compare.verdict(10.0, 8.0, "lower", 0.1, 0.0)
    assert change == pytest.approx(0.2)
