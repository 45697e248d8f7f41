"""Tests for plan persistence, the job monitor and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster.topology import t1
from repro.core.bandwidth_aware import bandwidth_aware_partition
from repro.core.persist import load_plan, save_plan
from repro.errors import PlacementError
from repro.runtime.events import EventStream, Span
from repro.runtime.monitor import JobMonitor


class TestPersist:
    def test_roundtrip(self, small_graph, tmp_path):
        plan = bandwidth_aware_partition(small_graph, t1(4), 8, seed=0)
        path = tmp_path / "plan.npz"
        save_plan(plan, path)
        restored = load_plan(path)
        assert np.array_equal(restored.parts, plan.parts)
        assert np.array_equal(restored.placement, plan.placement)
        assert restored.num_parts == plan.num_parts
        assert restored.method == plan.method
        assert restored.node_cuts == plan.node_cuts
        assert restored.machine_sets == plan.machine_sets

    def test_restored_plan_runs(self, small_graph, tmp_path):
        from repro.apps import NetworkRankingPropagation
        from repro.core.surfer import Surfer
        from tests.conftest import make_test_cluster

        plan = bandwidth_aware_partition(small_graph, t1(4), 8, seed=0)
        path = tmp_path / "plan.npz"
        save_plan(plan, path)
        surfer = Surfer(small_graph, make_test_cluster(4),
                        plan=load_plan(path))
        job = surfer.run_propagation(NetworkRankingPropagation())
        assert job.result.size == small_graph.num_vertices

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a numpy archive")
        with pytest.raises(PlacementError):
            load_plan(path)

    def test_rejects_wrong_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(PlacementError):
            load_plan(path)


def _exec(machine, start, end, kind="work", succeeded=True):
    return Span(name="t", kind=kind, start=start, end=end,
                machine=machine, succeeded=succeeded)


def _monitor(spans):
    events = EventStream()
    events.spans.extend(spans)
    return JobMonitor(events)


class TestMonitor:
    def test_utilization(self):
        execs = [_exec(0, 0, 10), _exec(1, 0, 5)]
        stats = _monitor(execs).machine_utilization()
        assert stats[0].utilization == pytest.approx(1.0)
        assert stats[1].utilization == pytest.approx(0.5)

    def test_stragglers(self):
        execs = [_exec(0, 0, 10), _exec(1, 0, 100), _exec(2, 0, 12)]
        assert _monitor(execs).stragglers() == [1]

    def test_stage_summary_counts_failures(self):
        execs = [_exec(0, 0, 5, kind="transfer"),
                 _exec(0, 5, 6, kind="transfer", succeeded=False)]
        summary = _monitor(execs).stage_summary()
        assert summary["transfer"]["tasks"] == 2
        assert summary["transfer"]["failed"] == 1

    def test_report_renders(self):
        execs = [_exec(0, 0, 10, kind="map")]
        report = _monitor(execs).report()
        assert "makespan" in report and "map" in report

    def test_empty_monitor(self):
        monitor = _monitor([])
        assert monitor.makespan == 0.0
        assert monitor.stragglers() == []
        assert "makespan" in monitor.report()


class TestCli:
    ARGS = ["--machines", "4", "--parts", "8", "--communities", "4",
            "--community-size", "32"]

    def test_run_propagation(self, capsys):
        assert cli_main(["run", "VDD"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "response time" in out and "makespan" in out

    def test_run_mapreduce(self, capsys):
        assert cli_main(["run", "VDD", "--engine", "mapreduce"]
                        + self.ARGS) == 0

    def test_run_extension_app(self, capsys):
        assert cli_main(["run", "CC"] + self.ARGS) == 0

    def test_diam_has_no_mapreduce(self, capsys):
        assert cli_main(["run", "DIAM", "--engine", "mapreduce"]
                        + self.ARGS) == 2

    @pytest.mark.parametrize("command", ["run", "profile", "chaos"])
    @pytest.mark.parametrize("job, message", [
        (["DIAM", "--engine", "mapreduce"],
         "DIAM has no MapReduce implementation\n"),
        (["NR", "--engine", "mapreduce", "--frontier"],
         "--frontier requires the propagation engine\n"),
    ])
    def test_argument_errors_before_deployment(self, command, job, message,
                                               capsys):
        # default-sized deployment: partitioning it would take seconds
        # and print the `graph:` line first
        assert cli_main([command] + job) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""

    @pytest.mark.parametrize("kills, reason", [
        (["1@nan"], "finite"),
        (["1@-3"], "non-negative"),
        (["1@5", "1@5"], "already scheduled"),
    ])
    def test_bad_kill_exits_before_deployment(self, kills, reason):
        argv = ["profile", "NR"] + self.ARGS
        for spec in kills:
            argv += ["--kill", spec]
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        message = str(exit_info.value.code)
        assert message.startswith(f"bad --kill {kills[-1]!r}: ")
        assert reason in message

    def test_chaos_keeps_its_flags_and_defaults(self, capsys):
        """chaos declares its options through the block run/profile use,
        re-sized; it lists what it always listed."""
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as exit_info:
            cli_main(["chaos", "--help"])
        assert exit_info.value.code == 0
        listed = capsys.readouterr().out
        for flag in ("--engine", "--frontier", "--topology", "--layout",
                     "--machines", "--parts", "--iterations",
                     "--communities", "--community-size", "--seed",
                     "--replication", "--schedules",
                     "--checkpoint-interval", "--max-restarts"):
            assert flag in listed
        for flag in ("--kill", "--no-local-opts", "--sanitize", "--trace",
                     "--bench"):
            assert flag not in listed
        args = _build_parser().parse_args(["chaos", "NR"])
        assert (args.machines, args.parts, args.communities,
                args.community_size, args.replication,
                args.checkpoint_interval) == (8, 16, 4, 32, 2, 1)
        assert (args.engine, args.topology, args.layout, args.seed,
                args.iterations, args.schedules, args.max_restarts) == (
            "propagation", "T1", "bandwidth-aware", 0, None, 50, 3)
        # run/profile keep the full-size defaults
        args = _build_parser().parse_args(["run", "NR"])
        assert (args.machines, args.parts, args.communities,
                args.community_size, args.replication,
                args.checkpoint_interval) == (16, 32, 16, 256, 3, 0)

    def test_partition_and_info(self, tmp_path, capsys):
        plan_path = str(tmp_path / "p.npz")
        assert cli_main(["partition", plan_path] + self.ARGS) == 0
        assert cli_main(["info", plan_path]) == 0
        out = capsys.readouterr().out
        assert "bandwidth-aware" in out

    def test_experiment_table4(self, capsys):
        assert cli_main(["experiment", "table4"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_experiment_table1(self, capsys):
        assert cli_main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "NOPE"])


class TestCliExperimentFormatting:
    """Figure experiment commands, with the expensive functions stubbed:
    the CLI prints the paper's arrangement and the reproduced verdict."""

    def _run(self, monkeypatch, capsys, *stubs):
        import dataclasses

        from repro.bench.experiments import EXPERIMENTS
        for name, result in stubs:
            monkeypatch.setitem(
                EXPERIMENTS, name,
                dataclasses.replace(EXPERIMENTS[name], run=lambda r=result: r))
        assert cli_main(["experiment"] + [name for name, _ in stubs]) == 0
        out = capsys.readouterr().out
        for name, _ in stubs:
            assert f"shape reproduced [{name}]" in out
        # the table cells of every printed line, whitespace-insensitive
        return out, [line.split() for line in out.splitlines()]

    @staticmethod
    def _placement(oblivious, aware):
        return {"oblivious": oblivious, "bandwidth-aware": aware,
                "improvement_pct": 100.0 * (1 - aware / oblivious)}

    def test_fig6(self, monkeypatch, capsys):
        out, rows = self._run(monkeypatch, capsys, ("fig6", {
            "T1": self._placement(200.0, 190.0),
            "T2(2,1)": self._placement(2000.0, 1000.0),
            "T2(4,1)": self._placement(2000.0, 1400.0),
            "T2(4,2)": self._placement(2000.0, 1600.0),
        }))
        assert "improvement %" in out
        assert ["T2(2,1)", "2e+03", "1e+03", "50"] in rows

    def test_fig7(self, monkeypatch, capsys):
        record = {"makespan_s": 197.204533, "machine_time_s": 4066.015378,
                  "network_bytes": 155808, "disk_bytes": 2052952,
                  "messages_shipped": 15176, "tasks": 128,
                  "wall_clock_s": 0.05}
        out, rows = self._run(monkeypatch, capsys, ("fig7", {
            "apps": {"NR": {"prop_time": 100.0, "mr_time": 300.0,
                            "speedup": 3.0, "prop_net": 1000.0,
                            "mr_net": 5000.0, "net_reduction_pct": 80.0}},
            "ladder": {"mapreduce": {"shuffle": 600, "network": 5000},
                       "mr_naive": {"shuffle": 1900, "network": 9000},
                       "mr_combiner": {"shuffle": 600, "network": 5000},
                       "propagation": {"shuffle": None, "network": 1000}},
            "precombine_bytes": 1900, "combine_reduction": 0.684,
            "records": {"fig7_nr_propagation": record},
        }))
        assert "net reduction %" in out
        assert ["NR", "100", "300", "3", "1000", "5000", "80"] in rows
        assert ["naive", "map,", "no", "combiner", "1900", "9000"] in rows
        assert "combiner cuts 68.4% of the naive shuffle" in out
        assert ["fig7_nr_propagation", "197.204533", "4066.015378",
                "155808", "2052952", "15176", "128"] in rows

    def test_fig9(self, monkeypatch, capsys):
        _, rows = self._run(monkeypatch, capsys, ("fig9", {
            2: self._placement(280.0, 232.4),
            128: self._placement(10000.0, 5000.0),
        }))
        assert ["2x", "280", "232.4", "17"] in rows
        assert ["128x", "1e+04", "5e+03", "50"] in rows

    def test_fig10(self, monkeypatch, capsys):
        out, rows = self._run(monkeypatch, capsys, ("fig10", {
            "victim": 7, "kill_time": 33.0,
            "normal_response": 100.0, "faulty_response": 110.0,
            "overhead_pct": 10.0, "failures": 1, "retries": 2,
            "faulty_timeline": (np.array([0.0, 50.0]),
                                np.array([4.0, 2.0])),
        }))
        assert "machine 7 killed at t=33s" in out
        assert ["with", "failure", "110", "3"] in rows
        assert "recovery overhead 10.0%" in out

    def test_fig11_and_fig12(self, monkeypatch, capsys):
        out, rows = self._run(
            monkeypatch, capsys,
            ("fig11", {"response": {8: 10.0, 16: 9.0}, "records": {}}),
            ("fig12", {8: {"prop_time": 5.0, "mr_time": 10.0,
                           "speedup": 2.0}}))
        assert ["16", "16", "9"] in rows
        assert ["8", "machines", "5", "10", "2"] in rows
        assert out.index("Figure 11") < out.index("Figure 12")

    def test_cascade(self, monkeypatch, capsys):
        out, rows = self._run(monkeypatch, capsys, ("cascade", {
            "v_k_ratio": 0.2, "d_min": 4,
            "iterations": {3: {
                "plain_time": 600.0, "cascaded_time": 552.0,
                "time_saving_pct": 8.0, "plain_disk": 6000.0,
                "cascaded_disk": 5760.0, "disk_saving_pct": 4.0}},
        }))
        assert "V_k ratio 20.0%, d_min 4" in out
        assert ["3", "iterations", "600", "552", "8", "6000", "5760",
                "4"] in rows
