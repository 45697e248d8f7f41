"""Cross-PR performance trajectory: join + render ``BENCH_PR*.json``.

A PR that moves a simulated cost commits one ``BENCH_<PR>.json`` at the
repo root.  Individually they are snapshots; joined per workload they
are the repo's cost history — this module loads that history, appends
the current ``repro experiment`` run, and renders it as a markdown report
with per-PR deltas, so "the combiner cuts the shuffle" stays a number
anyone can re-read instead of folklore in a commit message.
"""

from __future__ import annotations

import pathlib
import re

from repro.bench.benchjson import (
    RECORD_FIELDS,
    load_bench_json,
    validate_bench_json,
)
from repro.errors import BenchRunError

__all__ = [
    "load_history",
    "workload_series",
    "render_markdown",
]

_BENCH_RE = re.compile(r"^BENCH_PR(\d+)\.json$")

#: short column headers for the report tables, in RECORD_FIELDS order
_HEADERS = {
    "makespan_s": "makespan (s)",
    "machine_time_s": "machine time (s)",
    "network_bytes": "net (B)",
    "disk_bytes": "disk (B)",
    "messages_shipped": "messages",
    "tasks": "tasks",
    "wall_clock_s": "wall (s)",
}


def load_history(root: str | pathlib.Path = ".") -> list[dict]:
    """All ``BENCH_PR<n>.json`` docs under ``root``, oldest first.

    Every document must be schema-valid; a malformed baseline would
    silently corrupt the gate, so it is an error, not a skip.
    """
    root = pathlib.Path(root)
    docs: list[tuple[int, dict]] = []
    for path in root.glob("BENCH_PR*.json"):
        match = _BENCH_RE.match(path.name)
        if match is None:
            continue
        try:
            doc = load_bench_json(path)
        except ValueError as exc:  # not JSON at all
            raise BenchRunError(
                f"committed baseline {path} is invalid: {exc}") from exc
        errors = validate_bench_json(doc)
        if errors:
            raise BenchRunError(
                f"committed baseline {path} is invalid: "
                + "; ".join(errors)
            )
        docs.append((int(match.group(1)), doc))
    return [doc for _, doc in sorted(docs, key=lambda item: item[0])]


def workload_series(
    history: list[dict],
    current: dict[str, dict] | None = None,
    current_label: str = "current",
) -> dict[str, list[tuple[str, dict]]]:
    """``{workload: [(pr_label, record), ...]}`` oldest → newest."""
    series: dict[str, list[tuple[str, dict]]] = {}
    for doc in history:
        pr = str(doc.get("pr", "?"))
        for name, record in doc.get("workloads", {}).items():
            series.setdefault(name, []).append((pr, record))
    if current:
        for name, record in current.items():
            series.setdefault(name, []).append((current_label, record))
    return dict(sorted(series.items()))


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,d}"
    return f"{value:,.3f}"


def _cell(value: float, prev: float | None) -> str:
    """A value plus its delta vs. the previous row's value."""
    text = _fmt(value)
    if prev is None:
        return text
    if prev == 0:
        return text if value == 0 else f"{text} (new)"
    delta = 100.0 * (value / prev - 1.0)
    if abs(delta) < 0.05:
        return f"{text} (=)"
    return f"{text} ({delta:+.1f}%)"


def _workload_rows(
    entries: list[tuple[str, dict]],
) -> list[list[str]]:
    rows = []
    prev: dict | None = None
    for pr, record in entries:
        cells = [pr]
        for metric in RECORD_FIELDS:
            value = float(record.get(metric, 0.0))
            prev_v = float(prev.get(metric, 0.0)) if prev else None
            cells.append(_cell(value, prev_v))
        rows.append(cells)
        prev = record
    return rows


def render_markdown(
    history: list[dict],
    current: dict[str, dict] | None = None,
    current_label: str = "current",
    gate_result=None,
    title: str = "simulated-cost trajectory",
) -> str:
    """The full trajectory as GitHub-flavoured markdown."""
    series = workload_series(history, current, current_label)
    lines = [f"# {title}", ""]
    prs = [str(d.get("pr", "?")) for d in history]
    lines.append(
        f"History: {', '.join(prs) if prs else '(no committed baselines)'}"
        + (f" + {current_label} run" if current else "")
    )
    lines.append("")
    if gate_result is not None:
        lines.append("```")
        lines.append(gate_result.render())
        lines.append("```")
        lines.append("")
    header = ["PR"] + [_HEADERS[m] for m in RECORD_FIELDS]
    for name, entries in series.items():
        lines.append(f"## {name}")
        lines.append("")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for row in _workload_rows(entries):
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    lines.append(
        "Deltas are relative to the previous row (the last PR that "
        "measured the workload); `(=)` means within 0.05%. "
        "`wall_clock_s` is real Python time — "
        "compare it across PRs measured on the same machine only."
    )
    return "\n".join(lines) + "\n"

