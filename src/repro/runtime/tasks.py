"""Task model for the simulated Surfer runtime.

Every engine stage (Transfer, Combine, Map, Shuffle, Reduce, bisection...)
decomposes into :class:`Task` objects, each pinned to the machine holding
its input partition.  A task's resource demands are plain numbers — disk
bytes, CPU work units, network sends — which the scheduler converts into
simulated seconds against the cluster's rate models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Task"]


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
