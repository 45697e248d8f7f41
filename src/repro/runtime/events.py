"""Run-wide observability: structured spans, metrics, Chrome-trace export.

The paper's job manager "records resource utilization and estimates the
execution progress of the job" (Appendix B).  This module is the
substrate for that: every component of the runtime — the stage
scheduler, the propagation and MapReduce engines, the network model and
the fault-recovery path — emits into one :class:`EventStream` per job:

* :class:`Span` — one timed unit of simulated work (a task execution, a
  barrier stage, an iteration), carrying the simulated window, the
  machine/partition it ran on, and its cost counters (cpu ops,
  disk/network bytes).  A task execution's span also carries the
  :class:`~repro.runtime.tasks.Task` it ran, so the span is the
  scheduler's one record of the execution.  ``wall_self_seconds``
  records the *real* Python time spent producing the span, so simulated
  cost and simulator overhead can be separated in one trace.
* :class:`Instant` — a point event (fault detected, task re-dispatched,
  replica re-created, ...).
* :class:`MetricsRegistry` — named monotonic counters shared
  by the scheduler, the engines and the network model; the registry is
  the single source the reports and the BENCH JSON read from.

The job's log is ``job.events`` alone: nothing else keeps a per-task or
per-stage record of what ran.

:func:`chrome_trace` serializes a stream into the Chrome ``traceEvents``
JSON format, loadable in ``chrome://tracing`` or Perfetto: one process
per job section, one lane (thread) per machine, counters attached as
``args``.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from typing import Any

from repro.runtime.tasks import Task

__all__ = [
    "Span",
    "Instant",
    "MetricsRegistry",
    "EventStream",
    "chrome_trace",
    "write_chrome_trace",
    "reconcile",
    "CANONICAL_COUNTERS",
    "DYNAMIC_COUNTER_PREFIXES",
    "WallTimer",
    "wall_timer",
]


#: Absolute tolerance of the trace checks (:func:`reconcile`,
#: :meth:`EventStream.verify_frame_discipline`) on times and byte counts.
ATOL = 1e-6


# ----------------------------------------------------------------------
# Canonical counter schema
# ----------------------------------------------------------------------
#: Every counter name the runtime increments, with its meaning.  This is
#: the *registration side* of the counter-conservation contract: the
#: ``repro check`` counter pass (``repro.analysis.counters``) statically
#: cross-references each ``metrics.add("...")`` site in the engines, the
#: scheduler, the network model and the fault path against this table,
#: in both directions — an increment of an unregistered name and a
#: registered name that nothing increments are both CI failures.  Adding
#: a counter therefore always touches this table, which is what keeps
#: ``reconcile()`` and the BENCH JSON consumers honest about what exists.
CANONICAL_COUNTERS: dict[str, str] = {
    # -- stage scheduler ------------------------------------------------
    "scheduler.tasks_executed": "successful task executions",
    "scheduler.task_failures": "executions cut short by a fault",
    "scheduler.stages": "barrier stages run",
    "scheduler.retries": "task re-dispatches after failures",
    "scheduler.wall_seconds": "real Python seconds spent scheduling",
    "scheduler.re_replication_bytes":
        "background replica-repair traffic (audited by reconcile())",
    "scheduler.spec_charged_disk_read_bytes":
        "disk reads charged to spec-cancelled originals",
    "scheduler.spec_charged_disk_write_bytes":
        "disk writes charged to spec-cancelled originals",
    "scheduler.spec_charged_network_bytes":
        "network traffic charged to spec-cancelled originals",
    # -- network model --------------------------------------------------
    "network.bytes_total": "all traffic put on the wire",
    "network.transfers": "point-to-point transfer count",
    "network.bytes_cross_pod": "traffic crossing a pod boundary",
    "network.bytes_background": "background (re-replication) flows",
    # -- propagation engine ---------------------------------------------
    "propagation.iterations": "propagation iterations run",
    "propagation.messages_emitted": "messages produced by transfer()",
    "propagation.messages_shipped": "messages that crossed partitions",
    "propagation.network_bytes": "cross-partition payload bytes",
    "propagation.spill_bytes": "boundary spill written to local disk",
    "propagation.locally_propagated": "vertices combined in memory",
    # -- frontier mode ---------------------------------------------------
    "frontier.active": "active vertices scanned by frontier Transfers",
    "frontier.exchange_bytes":
        "frontier summary bytes announced to other machines",
    "frontier.direction_switches":
        "per-partition top-down/bottom-up direction flips",
    "frontier.bottom_up_scans": "partitions scanned bottom-up",
    # -- MapReduce engine -----------------------------------------------
    "mapreduce.rounds": "MapReduce rounds run",
    "mapreduce.map_records": "records emitted by map()",
    "mapreduce.shuffle_bytes": "spilled/shuffled bytes (post-combine)",
    "mapreduce.network_bytes": "shuffle bytes that crossed machines",
    "mapreduce.shuffle_records": "records actually shuffled",
    "mapreduce.shuffle_bytes_precombine":
        "shuffle volume before map-side combining",
    # -- checkpoint/restore ----------------------------------------------
    "checkpoint.checkpoints": "snapshots committed to the replica tier",
    "checkpoint.bytes_written": "checkpoint bytes written (all replicas)",
    "checkpoint.restores": "successful restores from a checkpoint",
    "checkpoint.bytes_read":
        "state + durable-partition bytes read back during restores",
    "checkpoint.restart_attempts": "job-level restart attempts begun",
    "checkpoint.backoff_seconds": "simulated backoff before restarts",
    "checkpoint.restored_partitions":
        "partitions reloaded from the durable tier (all replicas lost)",
    # -- simulator overhead ---------------------------------------------
    "wall.udf_seconds": "real Python seconds spent in UDFs",
}

#: Prefixes under which counter names may be minted dynamically (one
#: counter per recovery :class:`Instant` kind).  The static counter pass
#: accepts ``add(f"<prefix>{...}")`` only for these.
DYNAMIC_COUNTER_PREFIXES: tuple[str, ...] = ("recovery.",)


# ----------------------------------------------------------------------
# Sanctioned wall-clock source
# ----------------------------------------------------------------------
class WallTimer:
    """Measures *real* Python time for span self-time accounting.

    The simulated runtime must never consult the wall clock for model
    time — the DET004 lint forbids ``time.time``/``time.perf_counter``
    inside the engines and the scheduler.  The one legitimate use is
    measuring simulator overhead (``Span.wall_self_seconds``,
    ``wall.udf_seconds``), and this class is the single sanctioned way
    to do it.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = _time.perf_counter()

    def elapsed(self) -> float:
        """Real seconds since this timer was created."""
        return _time.perf_counter() - self._start


def wall_timer() -> WallTimer:
    """Start a :class:`WallTimer` (the sanctioned wall-clock API)."""
    return WallTimer()


@dataclass(frozen=True)
class Span:
    """One timed unit of simulated work.

    ``start``/``end`` are simulated seconds; ``machine`` is ``-1`` for
    run-level spans (barrier stages, iterations) that belong to no single
    machine.  Cost counters describe the work *attempted* in the window;
    for failed spans (``succeeded=False``) the charged fraction is
    ``duration / planned_duration``.  ``task`` is the dispatched
    :class:`~repro.runtime.tasks.Task` on a machine-level span (a retry
    or backup carries its clone) and ``None`` on a framing span.
    """

    name: str
    kind: str
    start: float
    end: float
    machine: int = -1
    partition: int | None = None
    succeeded: bool = True
    attempt: int = 0
    cpu_ops: float = 0.0
    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    net_send_bytes: float = 0.0
    net_recv_bytes: float = 0.0
    #: full duration the work was dispatched with (equals ``duration``
    #: for successful spans; larger for spans cut short by a fault)
    planned_duration: float = 0.0
    #: real (wall-clock) seconds of Python time spent producing this
    #: span, exclusive of child spans — simulator overhead, not model,
    #: so it takes no part in equality
    wall_self_seconds: float = field(default=0.0, compare=False)
    task: Task | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def disk_bytes(self) -> float:
        return self.disk_read_bytes + self.disk_write_bytes


@dataclass(frozen=True)
class Instant:
    """A point event on the simulated timeline.

    The job manager's fault-recovery actions are the instants of a run;
    ``kind`` is one of ``machine-down``, ``machine-recovered``,
    ``detect`` (heartbeat loss noticed), ``redispatch`` (lost task
    re-queued on a replica holder), ``spec-launch`` / ``spec-win`` /
    ``spec-cancel`` (speculative backup lifecycle), ``re-replicate``
    (background replica copy, ``nbytes`` of traffic), ``data-loss`` and
    ``job-restart`` (job-level restart from a checkpoint).  ``name`` is
    the task concerned — for ``job-restart`` the provenance, e.g.
    ``"from checkpoint @ superstep 12"`` — or the kind when there is
    none.
    """

    time: float
    name: str
    kind: str
    machine: int = -1
    partition: int | None = None
    nbytes: int = 0


class MetricsRegistry:
    """Named monotonic counters.

    Counter names are dotted paths (``network.bytes_total``,
    ``propagation.messages_shipped``); the registry is deliberately
    schema-free — any component may mint a name — but the canonical
    names are documented in ``docs/OBSERVABILITY.md`` and stable across
    PRs because the BENCH JSON reads them.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def get(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def snapshot(self) -> dict[str, float]:
        """All counters as one flat dict, sorted by name."""
        return dict(sorted(self.counters.items()))

    def report(self) -> str:
        lines = ["metrics:"]
        for name, value in sorted(self.counters.items()):
            if float(value).is_integer():
                lines.append(f"  {name:40s} {int(value):>16,d}")
            else:
                lines.append(f"  {name:40s} {value:>16,.2f}")
        return "\n".join(lines)


class EventStream:
    """The per-job collector every runtime component emits into."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = MetricsRegistry()

    # -- emission ------------------------------------------------------
    def span(self, span: Span) -> None:
        self.spans.append(span)

    def instant(self, time: float, name: str, kind: str,
                machine: int = -1, partition: int | None = None,
                nbytes: int = 0) -> None:
        self.instants.append(
            Instant(time, name, kind, machine, partition, nbytes)
        )

    # -- queries -------------------------------------------------------
    def task_spans(self) -> list[Span]:
        """Machine-level work spans (excludes stage/iteration framing)."""
        return [s for s in self.spans if s.machine >= 0]

    def machines(self) -> list[int]:
        return sorted({s.machine for s in self.task_spans()})

    @property
    def makespan(self) -> float:
        return max((s.end for s in self.task_spans()), default=0.0)

    def stage_totals(self) -> dict[str, dict[str, float]]:
        """Per-kind simulated totals over machine-level spans.

        The reconciliation surface (and the
        :class:`~repro.runtime.monitor.JobMonitor` stage summary): these
        sums must equal the cluster's cost counters for the same run.
        """
        totals: dict[str, dict[str, float]] = {}
        for s in self.task_spans():
            rec = totals.setdefault(s.kind, {
                "tasks": 0.0, "seconds": 0.0, "failed": 0.0,
                "cpu_ops": 0.0, "disk_read_bytes": 0.0,
                "disk_write_bytes": 0.0, "net_send_bytes": 0.0,
            })
            rec["tasks"] += 1
            rec["seconds"] += s.duration
            if not s.succeeded:
                rec["failed"] += 1
                continue
            # cost counters are charged on success only, mirroring the
            # scheduler's _charge(); int-truncated like the machine
            # counters so the totals reconcile exactly
            rec["cpu_ops"] += s.cpu_ops
            rec["disk_read_bytes"] += int(s.disk_read_bytes)
            rec["disk_write_bytes"] += int(s.disk_write_bytes)
            rec["net_send_bytes"] += int(s.net_send_bytes)
        return totals

    def wall_seconds(self) -> float:
        """Total real Python time recorded across all spans."""
        return sum(s.wall_self_seconds for s in self.spans)

    def verify_frame_discipline(self) -> list[str]:
        """Check span push/pop discipline over the emission order.

        The emission contract: machine-level task spans are followed by
        exactly one ``stage`` span framing them; ``iteration``/``round``
        spans then frame the work stages of their superstep (checkpoint
        and restore stages sit *between* supersteps, outside any
        iteration frame).  A work stage left behind by an aborted
        superstep is legal only when a checkpoint/restore stage follows
        it before the next frame (the job-restart path).  Returns
        human-readable violations; empty means the discipline holds.
        """
        problems: list[str] = []

        def is_recovery_stage(span: Span) -> bool:
            kinds = span.name.split(" ", 1)[-1].split("+")
            return bool({"checkpoint", "restore"} & set(kinds))

        open_tasks: list[Span] = []
        pending_stages: list[Span] = []
        for s in self.spans:
            if s.end < s.start - ATOL:
                problems.append(
                    f"span {s.name!r} ends before it starts "
                    f"({s.end!r} < {s.start!r})")
            if s.machine >= 0:
                open_tasks.append(s)
            elif s.kind == "stage":
                for t in open_tasks:
                    if (t.start < s.start - ATOL
                            or t.end > s.end + ATOL):
                        problems.append(
                            f"task span {t.name!r} "
                            f"[{t.start!r}, {t.end!r}] escapes its "
                            f"stage {s.name!r} [{s.start!r}, {s.end!r}]")
                open_tasks = []
                pending_stages.append(s)
            elif s.kind in ("iteration", "round"):
                if open_tasks:
                    problems.append(
                        f"{len(open_tasks)} task span(s) not framed by "
                        f"a stage before {s.name!r}")
                    open_tasks = []
                framed = 0
                for idx, st in enumerate(pending_stages):
                    if is_recovery_stage(st):
                        continue
                    if (st.end <= s.start + ATOL
                            and any(is_recovery_stage(later) for later
                                    in pending_stages[idx + 1:])):
                        continue  # aborted pre-restart work
                    framed += 1
                    if (st.start < s.start - ATOL
                            or st.end > s.end + ATOL):
                        problems.append(
                            f"stage {st.name!r} "
                            f"[{st.start!r}, {st.end!r}] escapes its "
                            f"{s.kind} frame {s.name!r} "
                            f"[{s.start!r}, {s.end!r}]")
                if not framed:
                    problems.append(f"{s.name!r} frames no work stage")
                pending_stages = []
        if open_tasks:
            problems.append(
                f"{len(open_tasks)} task span(s) never framed by a "
                "stage span")
        return problems


# ----------------------------------------------------------------------
# Chrome-trace (chrome://tracing, Perfetto) export
# ----------------------------------------------------------------------
_USEC = 1e6  # trace timestamps are microseconds; ours are sim seconds


def chrome_trace(stream: EventStream) -> dict:
    """Serialize a stream to the Chrome ``traceEvents`` JSON object.

    Layout: pid 0 is the job ("surfer"), with one lane (tid) per
    machine; run-level spans (stages, iterations) render on pid 1
    ("job manager") in a single lane.  Counters ride along as ``args``
    so clicking a slice shows its cost breakdown.  Instants (recovery
    actions) appear as instant events on the lane of their machine.
    """
    events: list[dict] = []
    events.append({"ph": "M", "pid": 0, "name": "process_name",
                   "args": {"name": "surfer"}})
    events.append({"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": "job manager"}})
    events.append({"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
                   "args": {"name": "stages"}})
    for m in stream.machines():
        events.append({"ph": "M", "pid": 0, "tid": m,
                       "name": "thread_name",
                       "args": {"name": f"machine {m}"}})
    for s in stream.spans:
        machine_level = s.machine >= 0
        args = {
            "kind": s.kind,
            "succeeded": s.succeeded,
            "cpu_ops": s.cpu_ops,
            "disk_read_bytes": s.disk_read_bytes,
            "disk_write_bytes": s.disk_write_bytes,
            "net_send_bytes": s.net_send_bytes,
            "net_recv_bytes": s.net_recv_bytes,
            "wall_self_seconds": s.wall_self_seconds,
        }
        if s.partition is not None:
            args["partition"] = s.partition
        if s.attempt:
            args["attempt"] = s.attempt
        if not s.succeeded and s.planned_duration > 0:
            args["planned_duration"] = s.planned_duration
        events.append({
            "name": s.name,
            "cat": s.kind,
            "ph": "X",
            "pid": 0 if machine_level else 1,
            "tid": s.machine if machine_level else 0,
            "ts": s.start * _USEC,
            "dur": s.duration * _USEC,
            "args": args,
        })
    for ev in stream.instants:
        args: dict = {"kind": ev.kind}
        if ev.partition is not None:
            args["partition"] = ev.partition
        if ev.nbytes:
            args["nbytes"] = ev.nbytes
        events.append({
            "name": ev.name,
            "cat": ev.kind,
            "ph": "i",
            "s": "g" if ev.machine < 0 else "t",
            "pid": 0 if ev.machine >= 0 else 1,
            "tid": max(ev.machine, 0),
            "ts": ev.time * _USEC,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated seconds scaled to microseconds",
            "metrics": stream.metrics.snapshot(),
            "wall_seconds": stream.wall_seconds(),
        },
    }


def write_chrome_trace(stream: EventStream, path: str) -> None:
    """Write the Chrome-trace JSON for ``stream`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(stream), fh, indent=1)


# ----------------------------------------------------------------------
# Reconciliation: the event stream must agree with the cluster counters
# ----------------------------------------------------------------------
def reconcile(job: Any) -> list[str]:
    """Cross-check a job's event stream against its cluster metrics.

    Returns a list of human-readable mismatch descriptions (empty means
    the trace reconciles).  Checks that the span-level totals — makespan,
    disk bytes, network bytes — independently reproduce the
    :class:`~repro.cluster.cluster.ClusterMetrics` the cluster counted
    during the run.  Disk and network take re-replication into account:
    the cluster charges repair reads/writes and background flows to
    machines directly, not to any task span.

    :data:`ATOL` absorbs float truncation when tasks carry fractional
    byte demands (the default workloads are integer-valued, so the check
    is effectively exact).
    """
    stream = job.events
    metrics = job.metrics
    if stream is None:
        return ["job has no event stream"]
    problems: list[str] = []

    def check(name: str, from_events: float, from_cluster: float) -> None:
        if abs(from_events - from_cluster) > ATOL:
            problems.append(
                f"{name}: events={from_events!r} vs cluster={from_cluster!r}"
            )

    totals = stream.stage_totals()
    registry = stream.metrics
    re_repl = registry.get("scheduler.re_replication_bytes")

    check("makespan", stream.makespan, metrics.response_time)
    check("disk_read_bytes",
          sum(t["disk_read_bytes"] for t in totals.values()) + re_repl
          + registry.get("scheduler.spec_charged_disk_read_bytes"),
          metrics.disk_read_bytes)
    check("disk_write_bytes",
          sum(t["disk_write_bytes"] for t in totals.values()) + re_repl
          + registry.get("scheduler.spec_charged_disk_write_bytes"),
          metrics.disk_write_bytes)
    check("network_bytes",
          sum(t["net_send_bytes"] for t in totals.values())
          + registry.get("network.bytes_background")
          + registry.get("scheduler.spec_charged_network_bytes"),
          metrics.network_bytes)
    check("network_bytes (registry)",
          registry.get("network.bytes_total"), metrics.network_bytes)
    check("re_replication_bytes", re_repl, metrics.re_replication_bytes)
    return problems
