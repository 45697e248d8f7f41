"""Stable-schema bench JSON: one job's costs as a ``repro-bench/v1`` record.

:func:`job_record` builds the record of a finished job; ``repro profile
--bench`` and ``repro chaos --bench`` write them to a document, and the
experiment registry prints their simulated costs in the committed
``benchmarks/results/`` tables, which are the cost baseline.
The schema is deliberately small and frozen (``SCHEMA``):

.. code-block:: json

    {
      "schema": "repro-bench/v1",
      "pr": "PR3",
      "workloads": {
        "fig7_nr_propagation": {
          "makespan_s": 123.4,
          "machine_time_s": 456.7,
          "network_bytes": 890,
          "disk_bytes": 123,
          "messages_shipped": 456,
          "tasks": 128,
          "wall_clock_s": 1.2
        }
      }
    }

``makespan_s``/``machine_time_s``/``network_bytes``/``disk_bytes`` come
from :class:`~repro.cluster.cluster.ClusterMetrics`; ``messages_shipped``
and ``tasks`` from the job's metrics registry (0 when the engine does
not populate them); ``wall_clock_s`` is real Python time for the run, so
simulator-speed regressions are visible alongside simulated-cost ones.
"""

from __future__ import annotations

import json

SCHEMA = "repro-bench/v1"

#: every workload record carries exactly these keys
RECORD_FIELDS = (
    "makespan_s",
    "machine_time_s",
    "network_bytes",
    "disk_bytes",
    "messages_shipped",
    "tasks",
    "wall_clock_s",
)

#: optional per-record keys — present only where the experiment measured
#: them (``peak_rss_bytes``: real process peak RSS around the run, the
#: out-of-core benchmarks' bounded-memory claim; ``rss_degraded``:
#: boolean flag set when the RSS sampling thread failed to shut down
#: cleanly, so the measurement is a coarser lower bound than usual)
OPTIONAL_RECORD_FIELDS = ("peak_rss_bytes", "rss_degraded")

__all__ = ["SCHEMA", "RECORD_FIELDS", "OPTIONAL_RECORD_FIELDS",
           "job_record", "write_bench_json", "validate_bench_json",
           "load_bench_json"]


def _messages_shipped(registry) -> float:
    """The message counter of the engine that actually ran the job.

    A registry may carry *both* counter families — e.g. the propagation
    counter canonically registered at 0 on a MapReduce job — so a plain
    ``get(propagation..., default=get(mapreduce...))`` masks the
    fallback behind the zero and records 0 for MR workloads.  Key on
    the engines' round/iteration counters instead: whichever engine
    drove the job is the one whose message counter we report.
    """
    if registry.get("propagation.iterations") > 0:
        return registry.get("propagation.messages_shipped")
    if registry.get("mapreduce.rounds") > 0:
        return registry.get("mapreduce.map_records")
    # neither engine marker present (synthetic registries): old behaviour
    return registry.get("propagation.messages_shipped",
                        registry.get("mapreduce.map_records"))


def job_record(job, wall_clock_s: float,
               peak_rss_bytes: int | None = None,
               rss_degraded: bool = False) -> dict:
    """One workload record from a finished :class:`JobResult`.

    ``peak_rss_bytes``, when the experiment measured it, is recorded as an
    optional field (see :data:`OPTIONAL_RECORD_FIELDS`);
    ``rss_degraded`` is only recorded when True, and marks an RSS
    number measured under a misbehaving sampler.
    """
    metrics = job.metrics
    registry = job.events.metrics if job.events is not None else None
    shipped = tasks = 0.0
    if registry is not None:
        shipped = _messages_shipped(registry)
        tasks = registry.get("scheduler.tasks_executed")
    record = {
        "makespan_s": round(float(metrics.response_time), 6),
        "machine_time_s": round(float(metrics.total_machine_time), 6),
        "network_bytes": int(metrics.network_bytes),
        "disk_bytes": int(metrics.disk_bytes),
        "messages_shipped": int(shipped),
        "tasks": int(tasks),
        "wall_clock_s": round(float(wall_clock_s), 6),
    }
    if peak_rss_bytes is not None:
        record["peak_rss_bytes"] = int(peak_rss_bytes)
    if rss_degraded:
        record["rss_degraded"] = True
    return record


def write_bench_json(path, workloads: dict[str, dict], pr: str) -> dict:
    """Validate and write a bench document; returns the document.

    ``pr`` tags the document; the CLI writes ``"current"``.
    """
    doc = {"schema": SCHEMA, "pr": pr, "workloads": workloads}
    errors = validate_bench_json(doc)
    if errors:
        raise ValueError("invalid bench document: " + "; ".join(errors))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def load_bench_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def validate_bench_json(doc) -> list[str]:
    """All schema violations in ``doc`` (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("pr"), str) or not doc.get("pr"):
        errors.append("pr must be a non-empty string")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        errors.append("workloads must be a non-empty object")
        return errors
    for name, record in workloads.items():
        if not isinstance(record, dict):
            errors.append(f"workload {name!r} is not an object")
            continue
        missing = [f for f in RECORD_FIELDS if f not in record]
        extra = [f for f in record
                 if f not in RECORD_FIELDS and f not in OPTIONAL_RECORD_FIELDS]
        if missing:
            errors.append(f"workload {name!r} missing {missing}")
        if extra:
            errors.append(f"workload {name!r} has unknown fields {extra}")
        for f in RECORD_FIELDS + OPTIONAL_RECORD_FIELDS:
            value = record.get(f)
            if f == "rss_degraded":
                # the one non-numeric field: a marker, not a measurement
                if f in record and not isinstance(value, bool):
                    errors.append(f"workload {name!r}.{f} is not a boolean")
                continue
            # bool is an int subclass; True/False are not measurements
            if f in record and (isinstance(value, bool)
                                or not isinstance(value, (int, float))):
                errors.append(f"workload {name!r}.{f} is not a number")
            elif f in record and value < 0:
                errors.append(f"workload {name!r}.{f} is negative")
    return errors
