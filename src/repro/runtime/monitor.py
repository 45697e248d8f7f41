"""Job monitoring: resource-utilization reports.

The paper's job manager "records resource utilization and estimates the
execution progress of the job", surfaced through the demo GUI (Appendix
B).  This module is the text-mode equivalent: a :class:`JobMonitor`
summarizes a finished (or injected-fault) run's per-machine utilization,
per-stage progress and stragglers.

Everything here reads the run's :class:`~repro.runtime.events.EventStream`
— its machine-level :class:`~repro.runtime.events.Span` list for the work,
its :class:`~repro.runtime.events.Instant` list for the recovery actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.events import EventStream, Span
from repro.runtime.trace import recovery_event_counts

__all__ = ["MachineUtilization", "JobMonitor", "failed_task_seconds"]


@dataclass(frozen=True)
class MachineUtilization:
    """One machine's share of a run."""

    machine: int
    busy_seconds: float
    utilization: float
    tasks: int
    failed_tasks: int


def failed_task_seconds(executions: list[Span],
                        now: float = float("inf")) -> float:
    """Task-seconds lost to executions that had failed by ``now``."""
    return sum(e.duration for e in executions
               if e.end <= now and not e.succeeded)


class JobMonitor:
    """Post-hoc analysis of a job's event stream (``job.events``).

    The machine-level spans are the executions; when the run took
    fault-recovery actions (the stream's instants), the report includes
    a recovery section (detections, re-dispatches, speculative
    launches/cancels, re-replication traffic).
    """

    def __init__(self, events: EventStream) -> None:
        self.events = events
        self.executions = events.task_spans()

    @property
    def makespan(self) -> float:
        return self.events.makespan

    def machine_utilization(self) -> list[MachineUtilization]:
        """Per-machine busy time, utilization and failure counts."""
        span = self.makespan
        per_machine: dict[int, dict] = {}
        for e in self.executions:
            rec = per_machine.setdefault(
                e.machine, {"busy": 0.0, "tasks": 0, "failed": 0}
            )
            rec["busy"] += e.duration
            rec["tasks"] += 1
            if not e.succeeded:
                rec["failed"] += 1
        return [
            MachineUtilization(
                machine=m,
                busy_seconds=rec["busy"],
                utilization=(rec["busy"] / span if span > 0 else 0.0),
                tasks=rec["tasks"],
                failed_tasks=rec["failed"],
            )
            for m, rec in sorted(per_machine.items())
        ]

    def stragglers(self) -> list[int]:
        """Machines whose busy time exceeds 1.5 × the median."""
        stats = self.machine_utilization()
        if not stats:
            return []
        busy = np.array([s.busy_seconds for s in stats])
        median = float(np.median(busy))
        if median <= 0:
            return []
        return [s.machine for s in stats
                if s.busy_seconds > 1.5 * median]

    def stage_summary(self) -> dict[str, dict[str, float]]:
        """Aggregate duration, counts and cost counters per task kind."""
        return self.events.stage_totals()

    def failed_seconds(self) -> float:
        """Total task-seconds lost to failed executions."""
        return failed_task_seconds(self.executions)

    def recovery_summary(self) -> dict[str, int]:
        """Count of recovery events per kind (empty without fault plan)."""
        return recovery_event_counts(self.events.instants)

    def re_replication_bytes(self) -> int:
        """Background replica-repair traffic recorded during the run."""
        return sum(ev.nbytes for ev in self.events.instants
                   if ev.kind == "re-replicate")

    def restart_summary(self) -> str | None:
        """One line describing job-level restarts, or None without any.

        E.g. ``"restarted 2× from checkpoint @ superstep 12"`` — the
        count is the number of ``job-restart`` instants and the
        provenance is the latest one's name (restarts always resume from
        the newest committed checkpoint).
        """
        restarts = [ev for ev in self.events.instants
                    if ev.kind == "job-restart"]
        if not restarts:
            return None
        return f"restarted {len(restarts)}× {restarts[-1].name}"

    def report(self) -> str:
        """Human-readable utilization report (the GUI's text sibling)."""
        lines = [f"job makespan: {self.makespan:,.1f}s simulated"]
        lines.append("stage summary:")
        for kind, rec in sorted(self.stage_summary().items()):
            lines.append(
                f"  {kind:10s} {int(rec['tasks']):4d} tasks  "
                f"{rec['seconds']:10,.1f}s"
                + (f"  ({int(rec['failed'])} failed)"
                   if rec["failed"] else "")
            )
        failed = self.failed_seconds()
        if failed:
            lines.append(f"wasted (failed-task) time: {failed:,.1f}s")
        stats = self.machine_utilization()
        if stats:
            utils = [s.utilization for s in stats]
            lines.append(
                f"machine utilization: min {min(utils):.0%} / "
                f"median {float(np.median(utils)):.0%} / "
                f"max {max(utils):.0%}"
            )
        stragglers = self.stragglers()
        if stragglers:
            lines.append(f"stragglers (>1.5x median busy): {stragglers}")
        restarted = self.restart_summary()
        if restarted:
            lines.append(restarted)
        summary = self.recovery_summary()
        if summary:
            lines.append(
                "recovery events: "
                + ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
            )
            repair = self.re_replication_bytes()
            if repair:
                lines.append(
                    f"re-replication traffic: {repair:,} bytes"
                )
        return "\n".join(lines)
