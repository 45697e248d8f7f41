"""Tests for the observability layer: spans, metrics, Chrome traces,
reconciliation, job records and the None-transfer cost contract."""

import dataclasses
import json

import numpy as np
import pytest

from repro.apps import APP_REGISTRY
from repro.bench.experiments import job_record
from repro.bench.workloads import make_cluster
from repro.cluster.faults import FaultPlan, MachineKill
from repro.cluster.storage import PartitionStore
from repro.cluster.topology import t2
from repro.core import Surfer
from repro.errors import JobError
from repro.graph.generators import composite_social_graph
from repro.propagation.api import PropagationApp
from repro.runtime.events import (
    EventStream,
    MetricsRegistry,
    Span,
    chrome_trace,
    reconcile,
    write_chrome_trace,
)
from repro.runtime.monitor import JobMonitor, failed_task_seconds
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task
from repro.runtime.trace import recovery_event_counts


def small_surfer(seed=0, machines=8, parts=16):
    graph = composite_social_graph(num_communities=8, community_size=96,
                                   seed=seed)
    cluster = make_cluster(t2(2, 1, machines, 200e6))
    return Surfer(graph, cluster, num_parts=parts, seed=seed)


@pytest.fixture(scope="module")
def nr_surfer():
    return small_surfer()


@pytest.fixture(scope="module")
def nr_job(nr_surfer):
    prop_cls, __, __ = APP_REGISTRY["NR"]
    return nr_surfer.run_propagation(prop_cls(), iterations=2)


def nr_job_tasks(surfer):
    """The ``nr_job`` executions the engine dispatches: one Transfer and
    one Combine per partition per iteration, with no faults to retry."""
    return 2 * 2 * surfer.num_parts


# ----------------------------------------------------------------------
# MetricsRegistry / EventStream units
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.add("a.b")
        m.add("a.b", 2.5)
        assert m.get("a.b") == 3.5
        assert m.get("missing") == 0.0
        assert m.get("missing", 7.0) == 7.0

    def test_snapshot_and_report(self):
        m = MetricsRegistry()
        m.add("z.count", 2)
        m.add("a.ratio", 0.5)
        snap = m.snapshot()
        assert snap == {"a.ratio": 0.5, "z.count": 2.0}
        assert list(snap) == ["a.ratio", "z.count"]
        text = m.report()
        assert "z.count" in text and "0.50" in text


class TestEventStream:
    def test_task_spans_exclude_run_level(self):
        s = EventStream()
        s.span(Span(name="t", kind="transfer", start=0.0, end=1.0,
                    machine=2))
        s.span(Span(name="stage[0]", kind="stage", start=0.0, end=1.0))
        assert len(s.task_spans()) == 1
        assert s.machines() == [2]
        assert s.makespan == 1.0

    def test_empty_stream(self):
        s = EventStream()
        assert s.task_spans() == []
        assert s.machines() == []
        assert s.makespan == 0.0
        assert s.stage_totals() == {}
        assert s.wall_seconds() == 0.0

    def test_stage_totals_skip_failed_cost(self):
        s = EventStream()
        s.span(Span(name="ok", kind="transfer", start=0.0, end=2.0,
                    machine=0, cpu_ops=10.0, disk_read_bytes=100.9))
        s.span(Span(name="bad", kind="transfer", start=0.0, end=1.0,
                    machine=1, succeeded=False, cpu_ops=99.0,
                    disk_read_bytes=500.0))
        totals = s.stage_totals()["transfer"]
        assert totals["tasks"] == 2
        assert totals["failed"] == 1
        assert totals["seconds"] == pytest.approx(3.0)
        # failed cost is excluded; bytes are int-truncated like the
        # cluster machine counters
        assert totals["cpu_ops"] == 10.0
        assert totals["disk_read_bytes"] == 100


# ----------------------------------------------------------------------
# Progress estimation (the fixed semantics)
# ----------------------------------------------------------------------
def _exec(start, end, succeeded=True, machine=0):
    return Span(name="t", kind="work", start=start, end=end,
                machine=machine, succeeded=succeeded)


class TestFailedTaskSeconds:
    def test_failed_task_seconds(self):
        execs = [_exec(0.0, 10.0, succeeded=False),
                 _exec(10.0, 25.0),
                 _exec(25.0, 30.0, succeeded=False)]
        assert failed_task_seconds(execs) == pytest.approx(15.0)
        assert failed_task_seconds(execs, now=12.0) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Job-level span emission and the monitor built on it
# ----------------------------------------------------------------------
class TestJobEvents:
    def test_spans_cover_every_execution(self, nr_surfer, nr_job):
        # checked against the engine's dispatch and the machines' own
        # commit counts, not against the span list itself
        stream = nr_job.events
        assert stream is not None
        spans = stream.task_spans()
        assert len(spans) == nr_job_tasks(nr_surfer)
        assert len(spans) == sum(m.tasks_executed
                                 for m in nr_surfer.cluster.machines)
        per_unit = {}
        for s in spans:
            assert s.task is not None and s.task.name == s.name
            key = (s.kind, s.partition)
            per_unit[key] = per_unit.get(key, 0) + 1
        assert per_unit == {(kind, p): 2 for kind in ("transfer", "combine")
                            for p in range(nr_surfer.num_parts)}

    def test_stage_and_iteration_spans(self, nr_job):
        stream = nr_job.events
        stages = [s for s in stream.spans if s.kind == "stage"]
        iters = [s for s in stream.spans if s.kind == "iteration"]
        assert len(stages) == stream.metrics.get("scheduler.stages") == 4
        assert len(iters) == stream.metrics.get("propagation.iterations") == 2
        # framing spans live on no machine
        assert all(s.machine == -1 for s in stages + iters)

    def test_metrics_registry_populated(self, nr_surfer, nr_job):
        m = nr_job.events.metrics
        assert m.get("scheduler.tasks_executed") == nr_job_tasks(nr_surfer)
        assert m.get("network.bytes_total") == nr_job.metrics.network_bytes
        emitted = sum(r.messages_emitted for r in nr_job.reports)
        assert m.get("propagation.messages_emitted") == emitted

    def test_wall_clock_recorded(self, nr_job):
        assert nr_job.events.wall_seconds() > 0.0
        assert nr_job.events.metrics.get("wall.udf_seconds") > 0.0

    def test_monitor_from_events_matches_executions(self, nr_surfer,
                                                     nr_job):
        # the monitor reads the stream only; it must say what the
        # cluster's machines counted and what the engine dispatched
        monitor = JobMonitor(nr_job.events)
        assert monitor.makespan == nr_job.metrics.response_time
        summary = monitor.stage_summary()
        assert sorted(summary) == ["combine", "transfer"]
        for rec in summary.values():
            assert rec["tasks"] == nr_job_tasks(nr_surfer) // 2
        machines = [m for m in nr_surfer.cluster.machines
                    if m.tasks_executed]
        stats = monitor.machine_utilization()
        assert [u.machine for u in stats] == [m.machine_id for m in machines]
        assert [u.tasks for u in stats] == [m.tasks_executed
                                            for m in machines]
        assert [u.busy_seconds for u in stats] == pytest.approx(
            [m.busy_time for m in machines], rel=1e-12)

    def test_retry_span_carries_the_cloned_task(self):
        cluster = make_cluster(t2(2, 1, 4, 200e6))
        store = PartitionStore([0], num_machines=4, replication=2, seed=0)
        sched = StageScheduler(cluster, FaultPlan().add_kill(0, 0.25),
                               store, heartbeat=0.5)
        task = Task("t", machine=0, partition=0, cpu_ops=1e12,
                    fetches=[(3, 64)])
        sched.run_stage([task])
        lost, retry = sched.events.task_spans()
        assert lost.task is task and not lost.succeeded
        assert lost.end == 0.25
        assert retry.succeeded and retry.machine == store.replicas(0)[0]
        assert retry.task == dataclasses.replace(
            task, name="t#retry", machine=retry.machine, fetches=[],
            earliest_start=0.75, attempt=task.attempt + 1)
        assert retry.attempt == 1

    def test_report_includes_metrics_section(self, nr_job):
        # `repro profile` prints the registry section under the monitor
        # report; the monitor itself reports utilization only
        text = nr_job.events.metrics.report()
        assert text.startswith("metrics:")
        assert "network.bytes_total" in text
        assert "metrics:" not in JobMonitor(nr_job.events).report()

    def test_streams_are_per_job(self):
        surfer = small_surfer()
        prop_cls, __, __ = APP_REGISTRY["NR"]
        job1 = surfer.run_propagation(prop_cls(), iterations=1)
        count1 = job1.events.metrics.get("network.bytes_total")
        job2 = surfer.run_propagation(prop_cls(), iterations=1)
        # the first job's stream stayed frozen while the second ran
        assert job1.events.metrics.get("network.bytes_total") == count1
        assert job2.events is not job1.events


# ----------------------------------------------------------------------
# Reconciliation: span totals == cluster counters
# ----------------------------------------------------------------------
class TestReconciliation:
    def test_plain_propagation(self, nr_job):
        assert reconcile(nr_job) == []

    def test_mapreduce(self):
        surfer = small_surfer()
        __, mr_cls, __ = APP_REGISTRY["NR"]
        job = surfer.run_mapreduce(mr_cls(), rounds=2)
        assert reconcile(job) == []

    def test_machine_kill_with_re_replication(self):
        surfer = small_surfer(seed=3)
        prop_cls, __, __ = APP_REGISTRY["NR"]
        plan = FaultPlan(kills=[MachineKill(machine=2, time=5.0)])
        job = surfer.run_propagation(prop_cls(), iterations=3,
                                     fault_plan=plan)
        assert job.events.instants, "fault plan should trigger recovery"
        assert reconcile(job) == []

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_speculation_and_transients(self, pipelined):
        surfer = small_surfer(seed=5)
        prop_cls, __, __ = APP_REGISTRY["NR"]
        plan = FaultPlan()
        plan.add_transient(1, 3.0, 4.0)
        plan.add_slowdown(3, 0.0, 1e9, 3.0)
        job = surfer.run_propagation(prop_cls(), iterations=3,
                                     fault_plan=plan, pipelined=pipelined,
                                     speculation=True)
        assert reconcile(job) == []

    def test_recovery_instants_mirror_events(self):
        surfer = small_surfer(seed=3)
        prop_cls, __, __ = APP_REGISTRY["NR"]
        plan = FaultPlan(kills=[MachineKill(machine=2, time=5.0)])
        job = surfer.run_propagation(prop_cls(), iterations=3,
                                     fault_plan=plan)
        # the instants are the only recovery record; the per-kind
        # counters and the monitor's summary are derived views of them
        counts = recovery_event_counts(job.events.instants)
        assert {"machine-down", "detect", "redispatch"} <= set(counts)
        for kind, n in counts.items():
            assert job.events.metrics.get(f"recovery.{kind}") == n
        assert JobMonitor(job.events).recovery_summary() == counts


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_round_trip_valid_json(self, nr_job, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(nr_job.events, path)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["metrics"] == \
            nr_job.events.metrics.snapshot()

    def test_spans_monotonic_and_bounded(self, nr_job):
        doc = chrome_trace(nr_job.events)
        horizon = nr_job.events.makespan * 1e6
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(nr_job.events.spans)
        for e in slices:
            assert e["dur"] >= 0.0
            assert 0.0 <= e["ts"] <= horizon
            assert e["ts"] + e["dur"] <= horizon + 1e-6

    def test_one_lane_per_machine(self, nr_job):
        doc = chrome_trace(nr_job.events)
        lanes = {e["tid"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"
                 and e["pid"] == 0}
        assert sorted(lanes) == nr_job.events.machines()
        # every machine-level slice rides a declared lane
        for e in doc["traceEvents"]:
            if e["ph"] == "X" and e["pid"] == 0:
                assert e["tid"] in lanes

    def test_run_level_spans_on_job_manager_pid(self, nr_job):
        doc = chrome_trace(nr_job.events)
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["pid"] == 1}
        assert any(n.startswith("stage[") for n in names)
        assert any(n.startswith("iteration[") for n in names)

    def test_instants_exported(self):
        surfer = small_surfer(seed=3)
        prop_cls, __, __ = APP_REGISTRY["NR"]
        plan = FaultPlan(kills=[MachineKill(machine=2, time=5.0)])
        job = surfer.run_propagation(prop_cls(), iterations=2,
                                     fault_plan=plan)
        doc = chrome_trace(job.events)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(job.events.instants)
        assert all(e["s"] in ("t", "g") for e in instants)


# ----------------------------------------------------------------------
# Job records
# ----------------------------------------------------------------------
class TestBenchJson:
    def test_job_record_fields(self, nr_surfer, nr_job):
        rec = job_record(nr_job, wall_clock_s=1.5)
        assert set(rec) == {"makespan_s", "machine_time_s", "network_bytes",
                            "disk_bytes", "messages_shipped", "tasks",
                            "wall_clock_s"}
        assert rec["makespan_s"] == pytest.approx(
            nr_job.metrics.response_time)
        assert rec["network_bytes"] == nr_job.metrics.network_bytes
        assert rec["tasks"] == nr_job_tasks(nr_surfer)
        assert rec["wall_clock_s"] == 1.5

    def test_messages_shipped_follows_the_engine(self, nr_job):
        # propagation job: the propagation counter, and it is live
        rec = job_record(nr_job, 0.1)
        registry = nr_job.events.metrics
        assert rec["messages_shipped"] == int(
            registry.get("propagation.messages_shipped"))
        assert rec["messages_shipped"] > 0

        # MapReduce job: the same registry family canonically registers
        # propagation.messages_shipped at 0, which used to mask the
        # fallback to mapreduce.map_records — the record must carry the
        # MR counter instead
        surfer = small_surfer()
        __, mr_cls, __ = APP_REGISTRY["NR"]
        mr_job = surfer.run_mapreduce(mr_cls(), rounds=2)
        mr_registry = mr_job.events.metrics
        assert mr_registry.get("propagation.messages_shipped") == 0
        mr_rec = job_record(mr_job, 0.1)
        assert mr_rec["messages_shipped"] == int(
            mr_registry.get("mapreduce.map_records"))
        assert mr_rec["messages_shipped"] > 0


# ----------------------------------------------------------------------
# The None-transfer cost contract (scalar vs vectorized Transfer)
# ----------------------------------------------------------------------
class _State:
    def __init__(self):
        self.values = {}


class DroppingApp(PropagationApp):
    """Scalar transfer returns None for odd-parity edges.

    Such apps cannot express their transfer as ``transfer_array`` — the
    fast path has no per-edge None — so the base class (correctly)
    declines the fast path by not implementing the hook.
    """

    name = "dropping"

    def setup(self, pgraph):
        return _State()

    def transfer(self, u, v, state):
        return float(u) if (u + v) % 2 == 0 else None

    def combine(self, v, values, state):
        return sum(values)


class DecliningApp(DroppingApp):
    """Implements the hook but honours the contract by declining."""

    name = "declining"

    def transfer_array(self, src, dst, state):
        return None  # cannot express per-edge None: decline


class ViolatingApp(DroppingApp):
    """Breaks the contract: vectorizes a None-returning transfer by
    substituting 0.0 — the divergence this class exists to expose."""

    name = "violating"

    def transfer_array(self, src, dst, state):
        return np.where((src + dst) % 2 == 0, src.astype(float), 0.0)


class TestNoneTransferContract:
    """Pins the contract documented on ``PropagationApp.transfer_array``:
    apps whose scalar ``transfer`` may return None MUST decline the fast
    path, because the two paths' cost accounting (and routing) only
    coincide when every scanned edge routes a message."""

    def _run(self, app, vectorized):
        surfer = small_surfer(machines=4, parts=8)
        return surfer.run_propagation(app, iterations=1,
                                      vectorized=vectorized)

    @staticmethod
    def _sim_counters(stream):
        """Counters minus real wall-clock time (nondeterministic)."""
        return {k: v for k, v in stream.metrics.counters.items()
                if "wall" not in k}

    def test_declining_app_matches_scalar_oracle(self):
        oracle = self._run(DecliningApp(), vectorized=False)
        fallback = self._run(DecliningApp(), vectorized=None)
        assert fallback.result.values == oracle.result.values
        assert (fallback.events.stage_totals()
                == oracle.events.stage_totals())
        assert (self._sim_counters(fallback.events)
                == self._sim_counters(oracle.events))

    def test_declining_app_cannot_be_forced_vectorized(self):
        surfer = small_surfer(machines=4, parts=8)
        with pytest.raises(JobError):
            surfer.run_propagation(DecliningApp(), iterations=1,
                                   vectorized=True)

    def test_violation_diverges_messages_and_cpu(self):
        scalar = self._run(DroppingApp(), vectorized=False)
        violated = self._run(ViolatingApp(), vectorized=None)
        s_m = scalar.events.metrics
        v_m = violated.events.metrics
        # scalar routes only the non-None edges; the violating fast path
        # "routes" every scanned edge
        assert (v_m.get("propagation.messages_emitted")
                > s_m.get("propagation.messages_emitted"))
        # scalar charges edges_scanned + messages_routed; the fast path
        # charges 2 per scanned edge — more, since some edges drop
        s_cpu = scalar.events.stage_totals()["transfer"]["cpu_ops"]
        v_cpu = violated.events.stage_totals()["transfer"]["cpu_ops"]
        assert v_cpu > s_cpu
