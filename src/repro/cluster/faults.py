"""Fault injection for the fault-tolerance experiments (Figure 10 and the
fault-scenario sweep).

A :class:`FaultPlan` schedules three kinds of machine events, indexed by
machine id for O(1) lookup during scheduling:

* **permanent kills** (:class:`MachineKill`) — the machine stops accepting
  tasks at ``time`` and never returns; its in-flight task is lost and
  re-queued, and the partition store promotes replicas — reproducing the
  paper's 'kill a slave node at 235 seconds' experiment;
* **transient faults** (:class:`TransientFault`) — the machine is down for
  ``[time, time + downtime)`` and then rejoins with its disk intact; the
  in-flight task is lost and re-dispatched after heartbeat detection while
  queued tasks resume on the machine after recovery;
* **slowdowns** (:class:`Slowdown`) — a straggler factor applied uniformly
  to the machine's disk/CPU/NIC rates over ``[time, time + duration)``;
  work in the window proceeds at ``1/factor`` of the nominal rate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro.errors import FaultInjectionError

__all__ = ["FaultPlan", "MachineKill", "TransientFault", "Slowdown",
           "Outage"]


@dataclass(frozen=True)
class MachineKill:
    """Kill ``machine`` permanently at simulated ``time`` seconds."""

    machine: int
    time: float


@dataclass(frozen=True)
class TransientFault:
    """``machine`` is down for ``[time, time + downtime)`` then rejoins."""

    machine: int
    time: float
    downtime: float

    @property
    def end(self) -> float:
        return self.time + self.downtime


@dataclass(frozen=True)
class Slowdown:
    """``machine`` runs ``factor``× slower over ``[time, time + duration)``."""

    machine: int
    time: float
    duration: float
    factor: float

    @property
    def end(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class Outage:
    """A window during which a machine cannot make progress.

    ``end`` is ``inf`` for a permanent kill.
    """

    start: float
    end: float
    permanent: bool


def _check_overlap(windows, start: float, end: float, what: str) -> None:
    for w in windows:
        if w.time < end and start < w.end:
            raise FaultInjectionError(
                f"{what} [{start}, {end}) overlaps existing "
                f"[{w.time}, {w.end})"
            )


class FaultPlan:
    """A schedule of machine kills, transient faults and slowdowns.

    All per-machine queries are O(1) dict lookups (plus a short scan of
    that machine's own windows); the job scheduler calls them once per
    task dispatch.
    """

    def __init__(self, kills: list[MachineKill] | None = None):
        self._kills: dict[int, MachineKill] = {}
        self._transients: dict[int, list[TransientFault]] = {}
        self._slowdowns: dict[int, list[Slowdown]] = {}
        for k in kills or []:
            self.add_kill(k.machine, k.time)

    # ------------------------------------------------------------------
    @property
    def kills(self) -> list[MachineKill]:
        """All scheduled kills, ordered by time."""
        return sorted(self._kills.values(), key=lambda k: k.time)

    @property
    def transients(self) -> list[TransientFault]:
        return sorted(
            (f for fs in self._transients.values() for f in fs),
            key=lambda f: f.time,
        )

    @property
    def slowdowns(self) -> list[Slowdown]:
        return sorted(
            (s for ss in self._slowdowns.values() for s in ss),
            key=lambda s: s.time,
        )

    @property
    def empty(self) -> bool:
        return not (self._kills or self._transients or self._slowdowns)

    def machines(self) -> set[int]:
        """All machine ids with at least one scheduled event."""
        return (set(self._kills) | set(self._transients)
                | set(self._slowdowns))

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(machine: int, time: float) -> None:
        if not math.isfinite(time) or time < 0:
            raise FaultInjectionError(
                "event time must be finite and non-negative")
        if machine < 0:
            raise FaultInjectionError("machine id must be non-negative")

    def add_kill(self, machine: int, time: float) -> "FaultPlan":
        self._validate(machine, time)
        if machine in self._kills:
            raise FaultInjectionError(
                f"machine {machine} already scheduled to fail"
            )
        self._kills[machine] = MachineKill(machine, time)
        return self

    def add_transient(self, machine: int, time: float,
                      downtime: float) -> "FaultPlan":
        self._validate(machine, time)
        if not math.isfinite(downtime) or downtime <= 0:
            raise FaultInjectionError("downtime must be finite and positive")
        windows = self._transients.setdefault(machine, [])
        _check_overlap(windows, time, time + downtime, "transient fault")
        bisect.insort(windows, TransientFault(machine, time, downtime),
                      key=lambda f: f.time)
        return self

    def add_slowdown(self, machine: int, time: float, duration: float,
                     factor: float) -> "FaultPlan":
        self._validate(machine, time)
        if not math.isfinite(duration) or duration <= 0:
            raise FaultInjectionError(
                "slowdown duration must be finite and positive")
        if not math.isfinite(factor) or factor <= 1.0:
            raise FaultInjectionError("slowdown factor must be finite and > 1")
        windows = self._slowdowns.setdefault(machine, [])
        _check_overlap(windows, time, time + duration, "slowdown")
        bisect.insort(windows, Slowdown(machine, time, duration, factor),
                      key=lambda s: s.time)
        return self

    # ------------------------------------------------------------------
    def kill_time(self, machine: int) -> float | None:
        """When ``machine`` dies permanently, or None if it never does."""
        kill = self._kills.get(machine)
        return kill.time if kill is not None else None

    def is_dead(self, machine: int, now: float) -> bool:
        """Permanently dead at ``now``."""
        t = self.kill_time(machine)
        return t is not None and now >= t

    def is_down(self, machine: int, now: float) -> bool:
        """Unable to make progress at ``now`` (dead or in an outage)."""
        if self.is_dead(machine, now):
            return True
        return any(f.time <= now < f.end
                   for f in self._transients.get(machine, ()))

    def next_outage(self, machine: int, now: float) -> Outage | None:
        """The earliest outage still relevant at ``now``.

        Returns the first window (transient or permanent) whose end lies
        after ``now`` — the window the machine is currently inside, or the
        next one it will hit.  ``None`` when the machine runs undisturbed
        forever.
        """
        best: Outage | None = None
        kill = self._kills.get(machine)
        if kill is not None:
            best = Outage(kill.time, math.inf, True)
        for f in self._transients.get(machine, ()):
            if f.end <= now:
                continue
            if best is None or f.time < best.start:
                best = Outage(f.time, f.end, False)
            break  # sorted: the first live window is the earliest
        return best

    def advance(self, machine: int, start: float, work: float) -> float:
        """Wall-clock finish time of ``work`` nominal seconds from ``start``.

        Inside a slowdown window the machine produces ``1/factor`` seconds
        of work per wall second; outside, one for one.  With no slowdowns
        this is exactly ``start + work``.
        """
        if work <= 0:
            return start
        windows = self._slowdowns.get(machine)
        if not windows:
            return start + work
        t, remaining = start, work
        for w in windows:
            if w.end <= t:
                continue
            if w.time > t:
                gap = w.time - t
                if remaining <= gap:
                    return t + remaining
                remaining -= gap
                t = w.time
            # inside [t, w.end): work accrues at 1/factor
            capacity = (w.end - t) / w.factor
            if remaining <= capacity:
                return t + remaining * w.factor
            remaining -= capacity
            t = w.end
        return t + remaining
