"""Simulated Surfer runtime: tasks, job scheduler, traces, observability."""

from repro.runtime.events import (
    EventStream,
    Instant,
    MetricsRegistry,
    Span,
    chrome_trace,
    reconcile,
    write_chrome_trace,
)
from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointPolicy,
    CheckpointStore,
)
from repro.runtime.tasks import Task
from repro.runtime.scheduler import (
    HEARTBEAT_INTERVAL,
    MAX_RETRIES,
    SPECULATION_FACTOR,
    StageScheduler,
)
from repro.runtime.trace import io_rate_timeline, recovery_event_counts
from repro.runtime.monitor import (
    JobMonitor,
    MachineUtilization,
    failed_task_seconds,
)

__all__ = [
    "Checkpoint",
    "CheckpointPolicy",
    "CheckpointStore",
    "EventStream",
    "Instant",
    "MetricsRegistry",
    "Span",
    "chrome_trace",
    "reconcile",
    "write_chrome_trace",
    "failed_task_seconds",
    "Task",
    "HEARTBEAT_INTERVAL",
    "MAX_RETRIES",
    "SPECULATION_FACTOR",
    "StageScheduler",
    "io_rate_timeline",
    "recovery_event_counts",
    "JobMonitor",
    "MachineUtilization",
]
