"""Tests for the config-driven bench runner (``repro bench``).

Covers the TOML config model (validation collects every violation),
suite selection including per-workload suite overrides, the noise-aware
min-of-N sampler, and a tiny end-to-end suite run from a config file on
disk.  The committed configs under ``src/repro/bench/configs/`` must
always parse clean — they are the executable definition of the repo's
benchmark suite.
"""

import inspect
import textwrap
import tomllib
from types import SimpleNamespace

import pytest

from repro.bench.benchjson import validate_bench_json, write_bench_json
from repro.bench.runner import (
    DEFAULT_CONFIG_DIR,
    SUITES,
    WorkloadSpec,
    discover_configs,
    load_config,
    parse_config,
    run_suite,
    run_workload,
    select_suite,
    timed_min_of_n,
)
from repro.errors import BenchConfigError, BenchRunError


def parse(toml_text, source="<test>"):
    return parse_config(tomllib.loads(textwrap.dedent(toml_text)),
                        source=source)


MINIMAL = """
    [experiment]
    name = "tiny"
    suites = ["smoke"]

    [[workload]]
    name = "w1"
    app = "NR"
    engine = "propagation"
"""


# ----------------------------------------------------------------------
# Parsing + validation
# ----------------------------------------------------------------------
class TestParseConfig:
    def test_minimal_config_defaults(self):
        cfg = parse(MINIMAL)
        assert cfg.name == "tiny"
        assert cfg.kind == "jobs"
        assert cfg.suites == ("smoke",)
        assert cfg.repetitions == 1
        assert cfg.cluster.topology == "T1"
        assert len(cfg.workloads) == 1
        assert cfg.workloads[0].iterations is None  # app default

    def test_all_violations_collected_in_one_error(self):
        with pytest.raises(BenchConfigError) as exc:
            parse("""
                [experiment]
                name = "bad"
                suites = ["smoke", "nightly"]
                bogus_key = 1

                [cluster]
                topology = "T9"
                machines = -3

                [sampling]
                repetitions = true

                [tolerances]
                wall_clock_s = 4.0

                [[workload]]
                name = "w"
                app = "NOPE"
                engine = "gpu"
                iterations = 0

                [[workload]]
                name = "w"
                app = "NR"
                engine = "propagation"
            """)
        text = "\n".join(exc.value.errors)
        assert "unknown suites ['nightly']" in text
        assert "bogus_key" in text
        assert "unknown topology 'T9'" in text
        assert "machines must be a positive integer" in text
        assert "repetitions must be a positive integer" in text  # bool
        # gate tolerances are regress.DEFAULT_TOLERANCES, not config
        assert "top level: unknown key 'tolerances'" in text
        assert "unknown app 'NOPE'" in text
        assert "engine must be one of" in text
        assert "iterations must be a positive" in text
        assert "duplicate workload name 'w'" in text

    def test_missing_experiment_table(self):
        with pytest.raises(BenchConfigError) as exc:
            parse_config({"graph": {}})
        assert "missing [experiment] table" in exc.value.errors[0]

    def test_jobs_kind_needs_workloads(self):
        with pytest.raises(BenchConfigError) as exc:
            parse("""
                [experiment]
                name = "empty"
                suites = ["smoke"]
            """)
        assert any("at least one" in e for e in exc.value.errors)

    def test_chaos_kind_needs_chaos_table_and_no_workloads(self):
        with pytest.raises(BenchConfigError) as exc:
            parse("""
                [experiment]
                name = "c"
                suites = ["paper"]
                kind = "chaos"

                [[workload]]
                name = "w"
                app = "NR"
                engine = "propagation"
            """)
        text = "\n".join(exc.value.errors)
        assert "requires a [chaos] table" in text
        assert "not [[workload]] entries" in text

    def test_chaos_config_parses(self):
        cfg = parse("""
            [experiment]
            name = "c"
            suites = ["paper"]
            kind = "chaos"

            [chaos]
            app = "NR"
            schedules = 6
            prefix = "x"
        """)
        assert cfg.kind == "chaos"
        assert cfg.chaos.schedules == 6
        assert cfg.chaos.prefix == "x"
        assert cfg.workloads == ()

    def test_bools_rejected_where_ints_expected(self):
        # isinstance(True, int) is True — the validator must not accept it
        with pytest.raises(BenchConfigError) as exc:
            parse("""
                [experiment]
                name = "b"
                suites = ["smoke"]

                [graph]
                communities = true

                [[workload]]
                name = "w"
                app = "NR"
                engine = "propagation"
                machines = true
            """)
        text = "\n".join(exc.value.errors)
        assert "communities must be a positive integer" in text
        assert "machines must be a positive integer" in text

    def test_workload_parts_auto_or_int(self):
        cfg = parse(MINIMAL.replace('engine = "propagation"',
                                    'engine = "propagation"\n'
                                    '    parts = "auto"'))
        assert cfg.workloads[0].parts == "auto"
        with pytest.raises(BenchConfigError):
            parse(MINIMAL.replace('engine = "propagation"',
                                  'engine = "propagation"\n'
                                  '    parts = "some"'))

    def test_load_config_reports_toml_syntax_errors(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[experiment\nname=")
        with pytest.raises(BenchConfigError) as exc:
            load_config(path)
        assert "TOML parse error" in exc.value.errors[0]
        assert str(path) == exc.value.source


# ----------------------------------------------------------------------
# Discovery + suite selection
# ----------------------------------------------------------------------
class TestSuiteSelection:
    def test_committed_configs_parse_clean(self):
        configs = discover_configs(DEFAULT_CONFIG_DIR)
        assert {c.name for c in configs} >= {
            "fig7_nr", "fig11_scaling", "mr_fastpath", "chaos_recovery"}
        # smoke must stay cheap: no chaos experiments, only the
        # endpoints of the scaling sweep
        smoke = select_suite(configs, "smoke")
        assert all(c.kind == "jobs" for c in smoke)
        # every suite selects something
        for suite in SUITES:
            assert select_suite(configs, suite)

    def test_per_workload_suite_override(self):
        cfg = parse("""
            [experiment]
            name = "s"
            suites = ["smoke", "full"]

            [[workload]]
            name = "everywhere"
            app = "NR"
            engine = "propagation"

            [[workload]]
            name = "full_only"
            app = "NR"
            engine = "propagation"
            suites = ["full"]
        """)
        assert [w.name for w in cfg.workloads_for("smoke")] == [
            "everywhere"]
        assert [w.name for w in cfg.workloads_for("full")] == [
            "everywhere", "full_only"]
        assert cfg.workloads_for("paper") == ()

    def test_unknown_suite_rejected(self):
        with pytest.raises(BenchConfigError):
            select_suite([], "nightly")

    def test_duplicate_experiment_names_rejected(self, tmp_path):
        for fname in ("a.toml", "b.toml"):
            (tmp_path / fname).write_text(textwrap.dedent(MINIMAL))
        with pytest.raises(BenchConfigError) as exc:
            discover_configs(tmp_path)
        assert "duplicate experiment name 'tiny'" in exc.value.errors[0]

    def test_missing_config_dir(self, tmp_path):
        with pytest.raises(BenchConfigError):
            discover_configs(tmp_path / "nope")


# ----------------------------------------------------------------------
# min-of-N sampling
# ----------------------------------------------------------------------
def fake_job(response=1.0, machine=2.0, net=10, disk=20):
    return SimpleNamespace(metrics=SimpleNamespace(
        response_time=response, total_machine_time=machine,
        network_bytes=net, disk_bytes=disk))


class TestMinOfN:
    def test_runs_n_times_and_keeps_min_wall(self):
        calls = []

        def run():
            calls.append(1)
            return fake_job()

        job, wall = timed_min_of_n(run, 5)
        assert len(calls) == 5
        assert job.metrics.response_time == 1.0
        assert wall >= 0.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(BenchRunError):
            timed_min_of_n(lambda: fake_job(), 0)

    def test_nondeterministic_simulated_metrics_raise(self):
        jobs = iter([fake_job(net=10), fake_job(net=11)])
        with pytest.raises(BenchRunError) as exc:
            timed_min_of_n(lambda: next(jobs), 2)
        assert "nondeterministic" in str(exc.value)


# ----------------------------------------------------------------------
# End-to-end: a tiny suite run from a config file on disk
# ----------------------------------------------------------------------
TINY_E2E = """
    [experiment]
    name = "e2e"
    description = "tiny end-to-end runner check"
    suites = ["smoke"]

    [graph]
    communities = 4
    community_size = 32
    k = 4
    seed = 7

    [cluster]
    topology = "T1"
    machines = 4
    parts = 4
    seed = 3

    [sampling]
    repetitions = 2

    [[workload]]
    name = "e2e_nr_prop"
    app = "NR"
    engine = "propagation"
    iterations = 1

    [[workload]]
    name = "e2e_nr_mr"
    app = "NR"
    engine = "mapreduce"
    iterations = 1
"""


class TestRunSuite:
    def test_tiny_suite_end_to_end(self, tmp_path):
        (tmp_path / "e2e.toml").write_text(textwrap.dedent(TINY_E2E))
        result = run_suite("smoke", config_dir=tmp_path)
        assert result.suite == "smoke"
        assert result.experiments == ["e2e"]
        assert set(result.records) == {"e2e_nr_prop", "e2e_nr_mr"}
        # records are schema-valid and engine counters distinct
        doc = write_bench_json(tmp_path / "out.json", result.records,
                               pr="TEST")
        assert validate_bench_json(doc) == []
        prop = result.records["e2e_nr_prop"]
        mr = result.records["e2e_nr_mr"]
        assert prop["messages_shipped"] > 0
        assert mr["messages_shipped"] > 0
        assert prop["wall_clock_s"] > 0
        # same simulated run is deterministic across suite invocations
        again = run_suite("smoke", config_dir=tmp_path)
        for name in result.records:
            for metric in ("makespan_s", "machine_time_s",
                           "network_bytes", "disk_bytes",
                           "messages_shipped", "tasks"):
                assert result.records[name][metric] == \
                    again.records[name][metric]

    def test_jobs_experiment_deploys_at_the_configured_replication(
            self, tmp_path, monkeypatch):
        from repro.core.surfer import Surfer

        real = Surfer.run
        replica_counts = set()

        def capture(self, *args, **kwargs):
            replica_counts.update(
                len(self.store.replicas(p)) for p in range(self.num_parts))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Surfer, "run", capture)
        (tmp_path / "e2e.toml").write_text(textwrap.dedent(
            TINY_E2E.replace("[cluster]", "[cluster]\n    replication = 1")))
        run_suite("smoke", config_dir=tmp_path, repetitions=1)
        assert replica_counts == {1}

    def test_suite_with_no_matching_workloads_is_empty(self, tmp_path):
        (tmp_path / "e2e.toml").write_text(textwrap.dedent(TINY_E2E))
        result = run_suite("paper", config_dir=tmp_path)
        assert result.records == {}
        assert result.experiments == []

    def test_cross_config_workload_collision_rejected(self, tmp_path):
        (tmp_path / "a.toml").write_text(textwrap.dedent(TINY_E2E))
        (tmp_path / "b.toml").write_text(textwrap.dedent(
            TINY_E2E).replace('name = "e2e"', 'name = "e2e_b"'))
        with pytest.raises(BenchRunError) as exc:
            run_suite("smoke", config_dir=tmp_path)
        assert "re-defines workload" in str(exc.value)


SHARD_E2E = """
    [experiment]
    name = "xl_tiny"
    suites = ["smoke"]

    [graph]
    kind = "rmat_shard"
    rmat_scale = 8
    edge_factor = 4
    seed = 7

    [cluster]
    topology = "T2(4,1)"
    machines = 8
    parts = 4
    seed = 7

    [[workload]]
    name = "xl_tiny_nr"
    app = "NR"
    engine = "propagation"
    iterations = 2
    vectorized = true
    measure_rss = true

    [[workload]]
    name = "xl_tiny_bfs"
    app = "BFS"
    engine = "propagation"
    until_convergence = true
    frontier = true
"""


class TestShardGraphConfig:
    """kind = "rmat_shard": the out-of-core XL path (ISSUE 9)."""

    def test_parses(self):
        cfg = parse(SHARD_E2E)
        assert cfg.graph.kind == "rmat_shard"
        assert cfg.graph.rmat_scale == 8
        assert cfg.graph.edge_factor == 4
        assert cfg.workloads[0].measure_rss is True
        assert cfg.workloads[0].max_peak_rss_bytes is None
        assert cfg.workloads[1].measure_rss is False

    def test_rejects_auto_parts_and_weak_scaling(self):
        bad = SHARD_E2E.replace(
            'iterations = 2', 'iterations = 2\n    parts = "auto"'
        ).replace('until_convergence = true',
                  'until_convergence = true\n'
                  '    scale_graph_by_machines = true')
        with pytest.raises(BenchConfigError) as exc:
            parse(bad)
        message = str(exc.value)
        assert "auto" in message
        assert "scale_graph_by_machines" in message

    def test_rejects_bad_rss_fields(self):
        bad = SHARD_E2E.replace(
            "measure_rss = true",
            'measure_rss = "yes"\n    max_peak_rss_bytes = -5')
        with pytest.raises(BenchConfigError) as exc:
            parse(bad)
        message = str(exc.value)
        assert "measure_rss" in message
        assert "max_peak_rss_bytes" in message

    def test_unknown_graph_kind_rejected(self):
        with pytest.raises(BenchConfigError) as exc:
            parse(SHARD_E2E.replace('"rmat_shard"', '"csr_shard"'))
        assert "rmat_shard" in str(exc.value)


class TestShardGraphExecution:
    def test_end_to_end(self, tmp_path):
        from repro.bench.memory import peak_rss_supported
        from repro.bench.runner import run_experiment

        cfg = parse(SHARD_E2E)
        records = run_experiment(cfg, suite="smoke")
        assert set(records) == {"xl_tiny_nr", "xl_tiny_bfs"}
        doc = write_bench_json(tmp_path / "out.json", records, pr="TEST")
        assert validate_bench_json(doc) == []
        if peak_rss_supported():
            assert records["xl_tiny_nr"]["peak_rss_bytes"] > 0
        # measure_rss off -> no optional field on the record
        assert "peak_rss_bytes" not in records["xl_tiny_bfs"]

    def test_matches_in_memory_graph(self, tmp_path):
        from repro.apps import APP_REGISTRY
        from repro.bench.runner import run_experiment
        from repro.bench.workloads import make_cluster, topology_by_name
        from repro.core.range_plan import contiguous_range_plan
        from repro.core.surfer import Surfer
        from repro.graph.generators import rmat
        from repro.graph.store import build_shard_store
        from repro.graph.stream import stream_rmat

        cfg = parse(SHARD_E2E)
        records = run_experiment(cfg, suite="smoke")
        # oracle: the runner's shard boundaries over the in-memory twin
        store = build_shard_store(
            stream_rmat(8, edge_factor=4, seed=7), tmp_path / "s", 4)
        graph = rmat(8, edge_factor=4, seed=7)
        cluster = make_cluster(topology_by_name("T2(4,1)", 8))
        plan = contiguous_range_plan(graph, cluster.topology, 4, seed=7,
                                     offsets=store.vertex_starts)
        surfer = Surfer(graph, cluster, seed=7, plan=plan)
        job = surfer.run_propagation(APP_REGISTRY["NR"][0](),
                                     iterations=2, vectorized=True)
        assert records["xl_tiny_nr"]["makespan_s"] == round(
            float(job.metrics.response_time), 6)
        assert records["xl_tiny_nr"]["network_bytes"] == int(
            job.metrics.network_bytes)

    def test_rss_ceiling_breach_fails(self):
        from repro.bench.memory import peak_rss_supported
        from repro.bench.runner import run_experiment

        if not peak_rss_supported():
            pytest.skip("no peak-RSS mechanism on this host")
        cfg = parse(SHARD_E2E.replace(
            "measure_rss = true",
            "measure_rss = true\n    max_peak_rss_bytes = 1.0"))
        with pytest.raises(BenchRunError) as exc:
            run_experiment(cfg, suite="smoke")
        assert "peak RSS" in str(exc.value)


# ----------------------------------------------------------------------
# One launch path: the same job through the runner and through the CLI
# ----------------------------------------------------------------------
class TestLauncherAgreement:
    DEPLOYMENT = ["--machines", "4", "--parts", "8", "--communities", "4",
                  "--community-size", "32"]

    @pytest.mark.parametrize("spec, argv", [
        (WorkloadSpec("w", app="NR", engine="mapreduce"),
         ["NR", "--engine", "mapreduce"]),
        (WorkloadSpec("w", app="BFS", engine="propagation", frontier=True),
         ["BFS", "--frontier"]),
        (WorkloadSpec("w", app="CC", engine="propagation"), ["CC"]),
    ], ids=["NR-mapreduce", "BFS-frontier", "CC"])
    def test_runner_and_cli_reach_surfer_run_alike(self, spec, argv,
                                                   monkeypatch, capsys):
        from repro.cli import main as cli_main
        from repro.core.surfer import Surfer
        from repro.graph.generators import composite_social_graph
        from tests.conftest import make_test_cluster

        real = Surfer.run
        calls = []

        def capture(self, app, *args, **kwargs):
            bound = inspect.signature(real).bind(self, app, *args, **kwargs)
            bound.apply_defaults()
            call = dict(bound.arguments)
            del call["self"]
            call["app"] = (type(app), vars(app))
            calls.append(call)
            return real(self, app, *args, **kwargs)

        monkeypatch.setattr(Surfer, "run", capture)
        graph = composite_social_graph(num_communities=4, community_size=32)
        run_workload(Surfer(graph, make_test_cluster(4), num_parts=8), spec)
        assert cli_main(["run"] + argv + self.DEPLOYMENT) == 0
        from_runner, from_cli = calls
        assert from_runner == from_cli
