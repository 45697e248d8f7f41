"""Task model for the simulated Surfer runtime.

Every engine stage (Transfer, Combine, Map, Shuffle, Reduce, bisection...)
decomposes into :class:`Task` objects, each pinned to the machine holding
its input partition.  A task's resource demands are plain numbers — disk
bytes, CPU work units, network sends — which the scheduler converts into
simulated seconds against the cluster's rate models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.events import Instant

__all__ = ["Task", "TaskExecution", "StageResult"]


@dataclass
class Task:
    """One schedulable unit of work.

    ``sends`` are ``(dst_machine, nbytes)`` pairs performed by this task;
    sends to the task's own machine are free (local).  ``receives`` are
    ``(src_machine, nbytes)`` pairs whose *time* is charged to this task —
    inbound data occupies the receiver's NIC before the task can run — but
    whose traffic was already counted by the sender.  ``input_transfers``
    are ``(src_machine, nbytes)`` pairs describing where this task's input
    came from — consulted only when the task must be *re-executed* after a
    failure, in which case a Combine-type task re-fetches its inputs
    (Appendix B).
    """

    name: str
    machine: int
    kind: str = "generic"
    partition: int | None = None
    disk_read_bytes: float = 0.0
    cpu_ops: float = 0.0
    disk_write_bytes: float = 0.0
    sends: list[tuple[int, float]] = field(default_factory=list)
    receives: list[tuple[int, float]] = field(default_factory=list)
    #: ``(src_machine, nbytes)`` remote input fetches — a non-local task
    #: pulling its partition from a replica holder.  Charged like receives
    #: *and* counted as network traffic.
    fetches: list[tuple[int, float]] = field(default_factory=list)
    input_transfers: list[tuple[int, float]] = field(default_factory=list)
    earliest_start: float = 0.0
    #: disk-rate divisor: > 1 when the working set does not fit in memory
    #: and I/O degrades from sequential to random (principle P2)
    disk_penalty: float = 1.0
    #: how many times this task has already been re-dispatched after a
    #: failure or launched speculatively; bounds the retry loop
    attempt: int = 0


@dataclass(frozen=True)
class TaskExecution:
    """A (possibly failed) run of a task on a machine.

    ``planned_duration`` is the full duration the scheduler dispatched
    the task with (slowdown-stretched), recorded at dispatch time.  For
    successful executions it equals ``duration``; for executions cut
    short by a fault it is the duration the task *would* have had, which
    is what byte proration over the partial window must divide by.
    ``0.0`` (the default, for hand-built executions) means unknown —
    consumers fall back to ``duration``.
    """

    task: Task
    machine: int
    start: float
    end: float
    succeeded: bool
    planned_duration: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StageResult:
    """Outcome of one synchronized stage."""

    executions: list[TaskExecution]
    start_time: float
    end_time: float
    failures: int = 0
    #: the recovery actions taken during the stage (a slice of the job
    #: stream's instants)
    recovery_events: list[Instant] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time
