"""Tests for the perf-trajectory regression gate and the report renderer.

The gate compares freshly measured ``repro-bench/v1`` records against
the latest committed ``BENCH_PR*.json`` baseline per workload; these
tests pin its semantics: identical records pass, an injected +20%
makespan regression fails, per-metric tolerances are respected,
improvements never fail, wall clock is recorded but not gated, and an
unbaselined workload fails the gate (it cannot pass vacuously).
"""

import json

import pytest

from repro.bench.benchjson import RECORD_FIELDS, SCHEMA
from repro.bench.regress import (
    DEFAULT_TOLERANCES,
    compare_records,
    latest_baselines,
)
from repro.bench.trajectory import (
    load_history,
    render_markdown,
    workload_series,
)
from repro.errors import BenchRunError


def record(**overrides):
    base = {
        "makespan_s": 100.0,
        "machine_time_s": 400.0,
        "network_bytes": 10_000,
        "disk_bytes": 50_000,
        "messages_shipped": 1_000,
        "tasks": 64,
        "wall_clock_s": 0.5,
    }
    base.update(overrides)
    return base


def doc(pr, **workloads):
    return {"schema": SCHEMA, "pr": pr, "workloads": workloads}


HISTORY = [doc("PR3", w=record()), doc("PR5", w=record(makespan_s=90.0))]


class TestLatestBaselines:
    def test_newest_doc_wins(self):
        latest = latest_baselines(HISTORY)
        pr, base = latest["w"]
        assert pr == "PR5"
        assert base["makespan_s"] == 90.0

    def test_union_across_docs(self):
        history = [doc("PR3", a=record()), doc("PR4", b=record())]
        latest = latest_baselines(history)
        assert set(latest) == {"a", "b"}
        assert latest["a"][0] == "PR3"


class TestGate:
    def test_passes_at_baseline(self):
        result = compare_records({"w": record(makespan_s=90.0)}, HISTORY)
        assert result.ok
        assert result.regressions == []
        assert "PASS" in result.render()
        # one finding per gated metric, all against the PR5 baseline
        assert {f.metric for f in result.findings} == (
            set(RECORD_FIELDS) - {"wall_clock_s"})
        assert {f.baseline_pr for f in result.findings} == {"PR5"}

    def test_fails_on_injected_makespan_regression(self):
        # +20% makespan, tolerance 5% -> gate must fail
        result = compare_records({"w": record(makespan_s=108.0)}, HISTORY)
        assert not result.ok
        (finding,) = result.regressions
        assert finding.metric == "makespan_s"
        assert finding.delta_pct == pytest.approx(20.0)
        rendered = result.render()
        assert "FAIL" in rendered and "REGRESSION" in rendered

    def test_per_metric_tolerances_respected(self):
        # +4% on makespan (tol 5%) passes; +4% on network (tol 2%) fails
        current = {"w": record(makespan_s=90.0 * 1.04,
                               network_bytes=10_400)}
        result = compare_records(current, HISTORY)
        assert [f.metric for f in result.regressions] == ["network_bytes"]

    def test_zero_tolerance_metrics_fail_on_any_increase(self):
        result = compare_records({"w": record(makespan_s=90.0,
                                              tasks=65)}, HISTORY)
        assert [f.metric for f in result.regressions] == ["tasks"]
        assert DEFAULT_TOLERANCES["tasks"] == 0.0

    def test_improvements_always_pass(self):
        current = {"w": record(makespan_s=45.0, network_bytes=5_000,
                               tasks=32, wall_clock_s=0.01)}
        assert compare_records(current, HISTORY).ok

    def test_wall_clock_recorded_not_gated(self):
        # perf/ is the wall-clock gate; 10-80 ms jobs are noise here
        current = {"w": record(makespan_s=90.0, wall_clock_s=500.0)}
        assert compare_records(current, HISTORY).ok
        assert "wall_clock_s" not in DEFAULT_TOLERANCES

    def test_global_tolerance_override(self):
        current = {"w": record(makespan_s=108.0)}
        assert compare_records(current, HISTORY,
                               tolerances={"makespan_s": 0.25}).ok

    def test_missing_baseline_fails_gate(self):
        result = compare_records({"brand_new": record(),
                                  "w": record(makespan_s=90.0)}, HISTORY)
        assert not result.ok
        assert result.regressions == []
        assert result.missing == ["brand_new"]
        rendered = result.render()
        assert "FAIL" in rendered
        assert "UNBASELINED brand_new" in rendered
        assert "--bless" in rendered

    def test_zero_baseline_guarded_by_absolute_floor(self):
        history = [doc("PR3", w=record(messages_shipped=0))]
        # zero -> zero passes even at zero tolerance...
        assert compare_records({"w": record(messages_shipped=0)},
                               history).ok
        # ...but zero -> nonzero is a regression
        result = compare_records({"w": record(messages_shipped=5)},
                                 history)
        assert [f.metric for f in result.regressions] == [
            "messages_shipped"]


class TestTrajectory:
    def write_history(self, root):
        for pr, rec in (("PR3", record()),
                        ("PR10", record(makespan_s=50.0))):
            path = root / f"BENCH_{pr}.json"
            path.write_text(json.dumps(doc(pr, w=rec)))

    def test_load_history_numeric_order(self, tmp_path):
        # PR10 must sort after PR3 (numeric, not lexicographic)
        self.write_history(tmp_path)
        history = load_history(tmp_path)
        assert [d["pr"] for d in history] == ["PR3", "PR10"]
        assert latest_baselines(history)["w"][0] == "PR10"

    def test_pr10_baseline_supersedes_pr9(self, tmp_path):
        # lexicographically "PR10" < "PR9"; the loader must still treat
        # PR10 as the newer baseline or a later PR would be gated
        # against stale numbers
        for pr, rec in (("PR9", record()),
                        ("PR10", record(makespan_s=60.0))):
            path = tmp_path / f"BENCH_{pr}.json"
            path.write_text(json.dumps(doc(pr, w=rec)))
        history = load_history(tmp_path)
        assert [d["pr"] for d in history] == ["PR9", "PR10"]
        pr, base = latest_baselines(history)["w"]
        assert pr == "PR10"
        assert base["makespan_s"] == 60.0

    def test_load_history_rejects_invalid_baseline(self, tmp_path):
        (tmp_path / "BENCH_PR2.json").write_text(
            json.dumps({"schema": "other/v9", "pr": "PR2",
                        "workloads": {"w": record()}}))
        with pytest.raises(BenchRunError) as exc:
            load_history(tmp_path)
        assert "invalid" in str(exc.value)

    def test_load_history_ignores_non_bench_files(self, tmp_path):
        self.write_history(tmp_path)
        (tmp_path / "BENCH_PRx.json").write_text("not json")
        assert len(load_history(tmp_path)) == 2

    def test_workload_series_appends_current(self):
        series = workload_series(HISTORY, {"w": record()},
                                 current_label="now")
        assert [pr for pr, _ in series["w"]] == ["PR3", "PR5", "now"]

    def test_render_markdown(self, tmp_path):
        self.write_history(tmp_path)
        history = load_history(tmp_path)
        current = {"w": record(makespan_s=50.0)}
        result = compare_records(current, history)
        text = render_markdown(history, current, gate_result=result)
        assert "## w" in text
        assert "| PR3 |" in text and "| current |" in text
        assert "(=)" in text            # unchanged vs previous row
        assert "-50.0%" in text         # PR3 -> PR10 improvement
        assert "gate: PASS" in text

    def test_render_markdown_fail_verdict(self, tmp_path):
        self.write_history(tmp_path)
        history = load_history(tmp_path)
        current = {"w": record(makespan_s=80.0)}   # +60% vs PR10
        result = compare_records(current, history)
        text = render_markdown(history, current, gate_result=result)
        assert "gate: FAIL" in text

    def test_empty_history_renders(self):
        text = render_markdown([], {"w": record()})
        assert "(no committed baselines)" in text


class TestOptionalMetrics:
    """peak_rss_bytes gates only when measured on both sides."""

    def test_regression_when_both_present(self):
        history = [doc("PR9", w=record(peak_rss_bytes=100_000_000))]
        current = {"w": record(peak_rss_bytes=200_000_000)}
        result = compare_records(current, history)
        rss = [f for f in result.regressions
               if f.metric == "peak_rss_bytes"]
        assert len(rss) == 1  # +100% > the 50% tolerance

    def test_within_tolerance_passes(self):
        history = [doc("PR9", w=record(peak_rss_bytes=100_000_000))]
        current = {"w": record(peak_rss_bytes=140_000_000)}
        assert compare_records(current, history).ok

    def test_skipped_when_baseline_lacks_it(self):
        history = [doc("PR3", w=record())]
        current = {"w": record(peak_rss_bytes=10**12)}
        result = compare_records(current, history)
        assert result.ok
        assert not any(f.metric == "peak_rss_bytes"
                       for f in result.findings)

    def test_skipped_when_current_lacks_it(self):
        # a baseline value is not a requirement to keep measuring
        history = [doc("PR9", w=record(peak_rss_bytes=100_000_000))]
        result = compare_records({"w": record()}, history)
        assert result.ok
        assert not any(f.metric == "peak_rss_bytes"
                       for f in result.findings)

    def test_schema_accepts_and_checks_optional_field(self):
        from repro.bench.benchjson import validate_bench_json

        good = doc("PR9", w=record(peak_rss_bytes=123))
        assert validate_bench_json(good) == []
        assert validate_bench_json(doc("PR9", w=record())) == []
        bad = doc("PR9", w=record(peak_rss_bytes="big"))
        assert any("peak_rss_bytes" in e for e in
                   validate_bench_json(bad))
        negative = doc("PR9", w=record(peak_rss_bytes=-1))
        assert any("negative" in e for e in
                   validate_bench_json(negative))
