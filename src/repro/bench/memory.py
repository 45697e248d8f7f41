"""Peak-RSS measurement for the out-of-core benchmarks.

The XL benchmarks' whole point is a *bounded-memory* claim: a 10M+-edge
run through the shard store must finish with peak RSS O(largest shard +
engine state), not O(graph).  That claim is only worth anything as a
measured, regression-gated number, so this module turns "peak resident
set during this call" into a metric.

On Linux the kernel maintains ``VmHWM`` (high-water-mark RSS) per
process and lets us *reset* it by writing ``5`` to
``/proc/self/clear_refs``; reset-then-read brackets exactly the measured
call, with no sampling blind spots.  Where that interface is missing
(non-Linux, restricted /proc) we fall back to a sampling thread, whose
resolution is good enough for the multi-hundred-MB scales the gate
asserts on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["RssMeasurement", "measure_peak_rss", "current_rss_bytes"]

_STATUS = "/proc/self/status"
_CLEAR_REFS = "/proc/self/clear_refs"
_SAMPLE_INTERVAL_S = 0.05
#: how long to wait for the sampling thread to wind down before giving
#: up and marking the measurement degraded (it is a daemon thread, so a
#: stuck /proc read can't hang the benchmark run itself)
_JOIN_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class RssMeasurement:
    """Outcome of one peak-RSS measurement.

    ``bytes`` is ``None`` when no mechanism worked.  ``degraded`` marks
    a sampled measurement whose sampler did not shut down cleanly — the
    number is still a valid lower bound, but late samples from the
    runaway thread were discarded, so it is flagged in the bench record
    rather than silently reported as exact.
    """

    bytes: int | None
    degraded: bool = False


def _read_status_kib(field: str) -> int | None:
    try:
        with open(_STATUS, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def current_rss_bytes() -> int | None:
    """Resident set size right now, or ``None`` if unreadable."""
    kib = _read_status_kib("VmRSS")
    return None if kib is None else kib * 1024


def _peak_rss_bytes() -> int | None:
    kib = _read_status_kib("VmHWM")
    return None if kib is None else kib * 1024


def _reset_peak() -> bool:
    """Reset the kernel's RSS high-water mark; True when it worked."""
    try:
        with open(_CLEAR_REFS, "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def measure_peak_rss(fn: Callable[[], Any]) -> tuple[Any, RssMeasurement]:
    """Run ``fn()`` and return ``(result, RssMeasurement)``.

    Peak is ``None`` when no mechanism worked.  Preference order:
    kernel high-water mark (reset via ``clear_refs``, exact), then a
    50 ms sampling thread (lower bound; short spikes can slip between
    samples).  The sampling thread is joined with a bounded timeout: a
    sampler wedged on a /proc read marks the measurement ``degraded``
    instead of hanging the benchmark.
    """
    if _reset_peak() and _peak_rss_bytes() is not None:
        result = fn()
        return result, RssMeasurement(bytes=_peak_rss_bytes())

    baseline = current_rss_bytes()
    if baseline is None:
        return fn(), RssMeasurement(bytes=None)
    peak = baseline
    stop = threading.Event()

    def sample() -> None:
        nonlocal peak
        while not stop.is_set():
            now = current_rss_bytes()
            if now is not None and now > peak:
                peak = now
            time.sleep(_SAMPLE_INTERVAL_S)

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        result = fn()
    finally:
        stop.set()
        thread.join(timeout=_JOIN_TIMEOUT_S)
    degraded = thread.is_alive()
    final = current_rss_bytes()
    if final is not None and final > peak:
        peak = final
    return result, RssMeasurement(bytes=peak, degraded=degraded)
