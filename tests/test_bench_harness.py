"""Unit tests for the bench harness, LoC counting and workloads,
including the one named-job launch path (``run_workload``)."""

import inspect

import pytest

from repro.apps import NetworkRankingPropagation
from repro.bench.harness import ExperimentTable, format_value
from repro.bench.loc import (
    PAPER_TABLE4,
    count_udf_lines,
    method_body_lines,
)
from repro.bench.workloads import (
    WorkloadSpec,
    cached_bisection,
    chaos_job,
    run_workload,
    standard_graph,
    standard_workload,
    topology_suite,
)
from repro.graph.generators import composite_social_graph


class TestExperimentTable:
    def test_add_and_cell(self):
        t = ExperimentTable("T", ["a", "b"])
        t.add_row("r1", [1, 2])
        assert t.cell("r1", "b") == 2

    def test_rejects_wrong_width(self):
        t = ExperimentTable("T", ["a"])
        with pytest.raises(ValueError):
            t.add_row("r", [1, 2])

    def test_missing_row(self):
        t = ExperimentTable("T", ["a"])
        with pytest.raises(KeyError):
            t.cell("nope", "a")

    def test_render_contains_everything(self):
        t = ExperimentTable("Title", ["col"])
        t.add_row("row", [3.14])
        t.notes.append("a note")
        text = t.render()
        assert "Title" in text and "row" in text and "a note" in text

    def test_formatters(self):
        assert format_value(3.0) == "3"
        assert format_value(12345.6) == "1.23e+04"


class TestLocCounting:
    def test_counts_body_lines_only(self):
        class Sample:
            def method(self):
                """Docstring not counted."""
                # comment not counted
                a = 1

                return a

        assert method_body_lines(Sample, "method") == 2

    def test_inherited_methods_count_zero(self):
        class Base:
            def method(self):
                return 1

        class Child(Base):
            pass

        assert method_body_lines(Child, "method") == 0

    def test_missing_method(self):
        class Empty:
            pass

        assert method_body_lines(Empty, "anything") == 0

    def test_app_udfs_counted(self):
        count = count_udf_lines(NetworkRankingPropagation, "propagation")
        assert 1 <= count <= 30

    def test_paper_table_rows_complete(self):
        for engine, counts in PAPER_TABLE4.items():
            assert set(counts) == {"VDD", "NR", "RS", "RLG", "TC", "TFL"}


class TestWorkloads:
    def test_standard_graph_memoized(self):
        assert standard_graph() is standard_graph()

    def test_cached_bisection_identity(self):
        g = composite_social_graph(4, 64, seed=3)
        a = cached_bisection(g, 16, 1)
        b = cached_bisection(g, 16, 1)
        assert a is b

    def test_workload_surfer_cached(self):
        wl = standard_workload(graph=composite_social_graph(4, 64, seed=3),
                               num_machines=8, num_parts=16)
        assert wl.surfer("oblivious") is wl.surfer("oblivious")

    def test_topology_suite_complete(self):
        suite = topology_suite(16)
        assert set(suite) == {"T1", "T2(2,1)", "T2(4,1)", "T2(4,2)", "T3"}
        for topo in suite.values():
            assert topo.num_machines == 16


class TestLauncherAgreement:
    """One launch path: the same job through run_workload and the CLI."""

    DEPLOYMENT = ["--machines", "4", "--parts", "8", "--communities", "4",
                  "--community-size", "32"]

    @pytest.fixture()
    def surfer_runs(self, monkeypatch):
        """Every ``Surfer.run`` call, arguments bound and defaults
        applied, the app as ``(type, vars)``."""
        from repro.core.surfer import Surfer

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
        return calls

    @staticmethod
    def deploy():
        from repro.core.surfer import Surfer
        from tests.conftest import make_test_cluster

        graph = composite_social_graph(num_communities=4, community_size=32)
        return Surfer(graph, make_test_cluster(4), num_parts=8)

    @pytest.mark.parametrize("spec, argv", [
        (WorkloadSpec("NR", "mapreduce"), ["NR", "--engine", "mapreduce"]),
        (WorkloadSpec("BFS", "propagation", frontier=True),
         ["BFS", "--frontier"]),
        (WorkloadSpec("CC", "propagation"), ["CC"]),
    ], ids=["NR-mapreduce", "BFS-frontier", "CC"])
    def test_run_workload_and_cli_agree(
            self, spec, argv, surfer_runs, capsys):
        from repro.cli import main as cli_main

        run_workload(self.deploy(), spec)
        assert cli_main(["run"] + argv + self.DEPLOYMENT) == 0
        from_workload, from_cli = surfer_runs
        assert from_workload == from_cli

    def test_chaos_job_checkpoints_only_faulted_runs(self, surfer_runs):
        from repro.cluster.faults import FaultPlan
        from repro.runtime.checkpoint import CheckpointPolicy

        policy = CheckpointPolicy(interval=1)
        run_job = chaos_job(WorkloadSpec("NR", "propagation"), policy)
        surfer = self.deploy()
        run_job(surfer, None)
        run_job(surfer, FaultPlan())
        clean, faulted = surfer_runs
        assert clean["checkpoint"] is None and clean["fault_plan"] is None
        assert faulted["checkpoint"] is policy
