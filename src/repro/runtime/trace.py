"""Execution-trace analysis: the I/O-rate timeline (Figure 10) and
recovery-event counts.

The fault-tolerance experiment plots the *disk I/O rate over time* of
normal and recovering executions.  We derive the timeline from the
machine-level :class:`~repro.runtime.events.Span` list of a job's
:class:`~repro.runtime.events.EventStream` (``events.task_spans()``) by
spreading each span's disk bytes uniformly over its window and sampling
on a fixed-width grid.  The stream's recovery
:class:`~repro.runtime.events.Instant` list is counted per kind.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.events import Instant, Span

__all__ = ["io_rate_timeline", "recovery_event_counts"]


def io_rate_timeline(
    spans: list[Span],
    bucket_seconds: float = 10.0,
    machine: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Disk-I/O rate (bytes/sec) sampled on ``bucket_seconds`` buckets.

    Returns ``(bucket_start_times, rates)``.  A failed span contributes
    the bytes proportional to how long it ran before dying: the
    scheduler records the full dispatched duration on every span, and a
    hand-built one without it is not prorated.
    """
    if bucket_seconds <= 0:
        raise ValueError("bucket_seconds must be positive")
    if machine is not None:
        spans = [e for e in spans if e.machine == machine]
    if not spans:
        return np.zeros(0), np.zeros(0)
    horizon = max(e.end for e in spans)
    num_buckets = int(np.ceil(horizon / bucket_seconds)) or 1
    bytes_per_bucket = np.zeros(num_buckets)
    for e in spans:
        total_bytes = e.disk_bytes
        if not e.succeeded and e.duration < e.planned_duration:
            total_bytes *= e.duration / e.planned_duration
        if e.duration <= 0:
            if total_bytes:
                bucket = min(int(e.start / bucket_seconds), num_buckets - 1)
                bytes_per_bucket[bucket] += total_bytes
            continue
        rate = total_bytes / e.duration
        first = int(e.start / bucket_seconds)
        last = min(int(np.ceil(e.end / bucket_seconds)), num_buckets)
        for b in range(first, last):
            lo = max(e.start, b * bucket_seconds)
            hi = min(e.end, (b + 1) * bucket_seconds)
            if hi > lo:
                bytes_per_bucket[b] += rate * (hi - lo)
    times = np.arange(num_buckets) * bucket_seconds
    return times, bytes_per_bucket / bucket_seconds


def recovery_event_counts(
    instants: list[Instant],
) -> dict[str, int]:
    """How many recovery events of each kind a run produced."""
    counts: dict[str, int] = {}
    for ev in instants:
        counts[ev.kind] = counts.get(ev.kind, 0) + 1
    return counts
