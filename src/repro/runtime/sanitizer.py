"""SimSan — the opt-in runtime sanitizer for simulated BSP runs.

``repro check`` proves invariants statically; SimSan proves the ones
only an execution can witness.  Attached to a
:class:`~repro.runtime.scheduler.StageScheduler` (via
``Surfer.run_propagation(..., sanitize=True)``, the ``--sanitize`` CLI
flag, or ``REPRO_SANITIZE=1`` in the environment for test runs), it
checks, as the job runs:

* **BSP write races** — a vector-clock detector over the simulated
  task events: within a superstep no write to a partition's state may
  be concurrent with another machine's access to the same partition.
  Machines only synchronize at stage barriers, so two task events on
  different machines inside one stage are concurrent by construction;
  the barrier joins all clocks, ordering later stages after earlier
  ones.
* **Shadow counter conservation** — the sanitizer independently counts
  task executions, failures and stages from each stage's execution
  spans as the scheduler hands them over and, at *every* superstep
  boundary (not only at job end), requires the metrics registry and the
  full :func:`~repro.runtime.events.reconcile` contract to agree with
  the cluster's own counters.
* **Span push/pop discipline** — every machine-level span must be
  framed by its stage span, every work stage by its iteration/round
  span (:meth:`EventStream.verify_frame_discipline`).
* **Read-only served views** — shard-backed graphs must hand out
  ``writeable=False`` arrays; a writable view is reported before the
  job runs a single stage.

SimSan is strictly observe-only: it mints no counters, emits no spans
and mutates no runtime state, so a sanitized run is bit-identical to
an unsanitized one — the CI smoke tier asserts exactly that.  Any
violation raises :class:`~repro.errors.SanitizerError` at the boundary
where it was detected, while the failing schedule is still in hand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import SanitizerError
from repro.runtime.events import ATOL, EventStream, Span, reconcile

__all__ = [
    "TaskEvent",
    "VectorClockRaceDetector",
    "Sanitizer",
    "sanitize_enabled",
]

#: task kind -> the partition-state access it models.  Transfer/map
#: tasks read their partition and emit messages; combine/reduce tasks
#: write the partition's state; restore rewrites it from a snapshot.
OP_BY_KIND: dict[str, str] = {
    "transfer": "read",
    "map": "read",
    "checkpoint": "read",
    "combine": "write",
    "reduce": "write",
    "restore": "write",
}


def sanitize_enabled(flag: bool | None = None) -> bool:
    """Resolve the sanitizer opt-in: explicit flag, else environment."""
    if flag is not None:
        return flag
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


@dataclass(frozen=True)
class TaskEvent:
    """One partition-state access, stamped with its vector clock."""

    machine: int
    partition: int
    op: str
    name: str
    #: the recording machine's vector clock, as sorted (machine, count)
    clock: tuple[tuple[int, int], ...]

    def happens_before(self, other: "TaskEvent") -> bool:
        """Vector-clock order: every component <= , at least one <."""
        mine = dict(self.clock)
        theirs = dict(other.clock)
        keys = sorted(set(mine) | set(theirs))
        le = all(mine.get(k, 0) <= theirs.get(k, 0) for k in keys)
        return le and mine != theirs

    def concurrent_with(self, other: "TaskEvent") -> bool:
        return (not self.happens_before(other)
                and not other.happens_before(self))


class VectorClockRaceDetector:
    """Happens-before tracking over simulated BSP task events.

    Each machine carries a vector clock seeded from the last barrier
    join; recording an event ticks the machine's own component.  At a
    :meth:`barrier` all buffered events are checked pairwise — two
    events race when they touch the same partition from different
    machines, at least one is a write, and neither happens-before the
    other — then every clock joins to the elementwise maximum, so all
    later events are ordered after the barrier.
    """

    def __init__(self) -> None:
        self._joined: dict[int, int] = {}
        self._clocks: dict[int, dict[int, int]] = {}
        self._pending: list[TaskEvent] = []
        self.events_recorded = 0
        self.barriers = 0

    def record(self, machine: int, partition: int, op: str,
               name: str) -> None:
        """Record one access of ``partition`` by ``machine``."""
        if op not in ("read", "write"):
            raise SanitizerError(f"unknown access op {op!r}")
        vc = self._clocks.setdefault(machine, dict(self._joined))
        vc[machine] = vc.get(machine, 0) + 1
        self._pending.append(TaskEvent(
            machine, partition, op, name, tuple(sorted(vc.items()))))
        self.events_recorded += 1

    def barrier(self) -> list[str]:
        """Race-check the buffered events, then join all clocks."""
        races: list[str] = []
        pending = self._pending
        for i, a in enumerate(pending):
            for b in pending[i + 1:]:
                if (a.partition == b.partition
                        and a.machine != b.machine
                        and ("write" in (a.op, b.op))
                        and a.concurrent_with(b)):
                    races.append(
                        f"partition {a.partition}: {a.op} by "
                        f"{a.name!r} (machine {a.machine}) races "
                        f"{b.op} by {b.name!r} (machine {b.machine})")
        joined = dict(self._joined)
        for vc in self._clocks.values():
            for machine, count in vc.items():
                joined[machine] = max(joined.get(machine, 0), count)
        self._joined = joined
        self._clocks = {}
        self._pending = []
        self.barriers += 1
        return races


class Sanitizer:
    """The per-job SimSan instance a scheduler carries when enabled."""

    def __init__(self) -> None:
        self.detector = VectorClockRaceDetector()
        self.stages_checked = 0
        self.supersteps_checked = 0
        self._shadow_executed = 0
        self._shadow_failed = 0

    # -- hooks ---------------------------------------------------------
    def on_stage(self, executions: Sequence[Span]) -> None:
        """Called by the scheduler after each stage is recorded.

        Feeds the race detector with the stage's *successful*
        partition accesses (a failed or speculatively-cancelled copy
        never commits its output) and barriers it, and grows the
        shadow execution counts the superstep check audits.
        """
        for e in executions:
            if e.succeeded:
                self._shadow_executed += 1
            else:
                self._shadow_failed += 1
            if e.succeeded and e.partition is not None:
                self.detector.record(e.machine, e.partition,
                                     OP_BY_KIND.get(e.kind, "read"), e.name)
        races = self.detector.barrier()
        self.stages_checked += 1
        if races:
            self._fail("BSP write race within a superstep", races)

    def on_superstep(self, events: EventStream, cluster: Any) -> None:
        """Called by an engine at every superstep boundary."""
        registry = events.metrics
        problems: list[str] = []
        shadow = (
            ("scheduler.tasks_executed", float(self._shadow_executed)),
            ("scheduler.task_failures", float(self._shadow_failed)),
            ("scheduler.stages", float(self.stages_checked)),
        )
        for name, expected in shadow:
            got = registry.get(name)
            if abs(got - expected) > ATOL:
                problems.append(
                    f"{name}: registry={got!r} vs shadow={expected!r}")
        problems.extend(reconcile(_JobView(events, cluster.metrics())))
        problems.extend(events.verify_frame_discipline())
        self.supersteps_checked += 1
        if problems:
            self._fail(
                f"superstep {self.supersteps_checked} boundary check "
                "failed", problems)

    def check_graph(self, graph: Any) -> None:
        """Writable-view audit for shard-backed graphs (pre-run)."""
        store = getattr(graph, "store", None)
        if store is None:
            return
        problems: list[str] = []
        for s in range(int(store.num_shards)):
            for label, arr in (
                (f"shard_indices({s})", store.shard_indices(s)),
                (f"shard_indptr({s})", store.shard_indptr(s)),
            ):
                flags = getattr(arr, "flags", None)
                if flags is not None and flags.writeable:
                    problems.append(
                        f"{label} serves a writable view")
        indptr = getattr(graph, "out_indptr", None)
        flags = getattr(indptr, "flags", None)
        if flags is not None and flags.writeable:
            problems.append("out_indptr is a writable shared array")
        if problems:
            self._fail("shard store hands out writable views", problems)

    # -- failure -------------------------------------------------------
    def _fail(self, what: str, details: Sequence[str]) -> None:
        lines = "\n  ".join(details)
        raise SanitizerError(f"SimSan: {what}:\n  {lines}")


class _JobView:
    """Minimal ``job`` shim for :func:`reconcile` mid-run."""

    __slots__ = ("events", "metrics")

    def __init__(self, events: EventStream, metrics: Any) -> None:
        self.events = events
        self.metrics = metrics
