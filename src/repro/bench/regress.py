"""Perf-trajectory regression gate over the ``BENCH_PR*.json`` history.

The repo's simulated-cost claims (the Figure 7 gap, the MapReduce
combiner ladder, the chaos sweep's recovery overhead) only stay claims
while someone re-measures them.  This gate does that mechanically: every
``repro experiment`` run compares the records its entries produce against
the *latest committed baseline* for each workload (the highest-numbered
``BENCH_PR*.json`` that contains it) and fails when a metric regressed
beyond its tolerance — or when a workload has no baseline at all, so the
gate cannot pass vacuously.

Tolerances are **relative** and per-metric: simulated cost counters are
deterministic, so they get tight bounds (any drift is a real cost-model
change someone must bless).  ``wall_clock_s`` is recorded and shown in
the trajectory but not gated: on 10-80 ms jobs it is noise, and ``perf/``
is the wall-clock gate.  Improvements never fail the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.benchjson import OPTIONAL_RECORD_FIELDS, RECORD_FIELDS

__all__ = [
    "DEFAULT_TOLERANCES",
    "GateFinding",
    "GateResult",
    "latest_baselines",
    "compare_records",
]

#: relative tolerance per metric (0.05 = current may exceed baseline by
#: 5%).  Simulated metrics are deterministic: identical inputs must
#: reproduce identical counters, so the slack only covers blessed noise
#: like float rounding.  Metrics without an entry are not gated.
DEFAULT_TOLERANCES: dict[str, float] = {
    "makespan_s": 0.05,
    "machine_time_s": 0.05,
    "network_bytes": 0.02,
    "disk_bytes": 0.02,
    "messages_shipped": 0.0,
    "tasks": 0.0,
    # real process memory: allocator/OS-dependent, but a 50% jump means
    # an O(shard) bound quietly became O(graph)
    "peak_rss_bytes": 0.5,
}

#: guard for integer-zero baselines: a regression needs to clear this
#: absolute floor too, so 0 -> 1e-12 style noise cannot trip the gate
_ABS_FLOOR = 1e-9


@dataclass(frozen=True)
class GateFinding:
    """One (workload, metric) comparison against its baseline."""

    workload: str
    metric: str
    baseline: float
    current: float
    baseline_pr: str
    tolerance: float
    regression: bool

    @property
    def delta_pct(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return 100.0 * (self.current / self.baseline - 1.0)

    def describe(self) -> str:
        delta = self.delta_pct
        delta_s = ("+inf%" if delta == float("inf")
                   else f"{delta:+.1f}%")
        return (f"{self.workload}.{self.metric}: {self.current:,.6g} vs "
                f"{self.baseline:,.6g} ({self.baseline_pr}) = {delta_s} "
                f"(tolerance {self.tolerance:.0%})")


@dataclass
class GateResult:
    """The gate's verdict: regressions and unbaselined workloads."""

    findings: list[GateFinding] = field(default_factory=list)
    #: workloads measured now but absent from every committed baseline
    missing: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[GateFinding]:
        return [f for f in self.findings if f.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def failures(self) -> list[str]:
        """One line per regressed metric and per unbaselined workload."""
        return ([f"REGRESSION {f.describe()}" for f in self.regressions]
                + [f"UNBASELINED {name}: no committed BENCH_PR*.json has "
                   "it, so nothing was gated — commit one with `python -m "
                   "repro experiment <entry> --bless PR<n>`"
                   for name in self.missing])

    def render(self) -> str:
        if self.ok:
            return "gate: PASS — no metric regressed beyond tolerance"
        return "\n".join(
            [f"gate: FAIL — {len(self.regressions)} regression(s) beyond "
             f"tolerance, {len(self.missing)} workload(s) without a "
             "baseline"]
            + [f"  {line}" for line in self.failures()])


def latest_baselines(
    history: list[dict],
) -> dict[str, tuple[str, dict]]:
    """``{workload: (pr, record)}`` from the newest doc that has it.

    ``history`` must be ordered oldest → newest (the order
    :func:`repro.bench.trajectory.load_history` returns).
    """
    latest: dict[str, tuple[str, dict]] = {}
    for doc in history:
        pr = str(doc.get("pr", "?"))
        for name, record in doc.get("workloads", {}).items():
            latest[name] = (pr, record)
    return latest


def compare_records(
    current: dict[str, dict],
    history: list[dict],
    tolerances: dict[str, float] | None = None,
) -> GateResult:
    """Gate ``current`` records against the committed history.

    ``tolerances`` overrides :data:`DEFAULT_TOLERANCES`.
    """
    base_tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        base_tol.update(tolerances)
    baselines = latest_baselines(history)
    result = GateResult()
    for name in sorted(current):
        if name not in baselines:
            result.missing.append(name)
            continue
        pr, baseline = baselines[name]
        for metric in RECORD_FIELDS + OPTIONAL_RECORD_FIELDS:
            if metric not in DEFAULT_TOLERANCES:
                # recorded but not gated: wall_clock_s (noise at this job
                # size) and non-numeric markers (rss_degraded)
                continue
            if metric in OPTIONAL_RECORD_FIELDS and (
                    metric not in baseline or metric not in current[name]):
                # optional metrics gate only when measured on both sides:
                # a missing baseline value is not a zero to regress from
                continue
            tol = base_tol[metric]
            base_v = float(baseline.get(metric, 0.0))
            cur_v = float(current[name].get(metric, 0.0))
            regressed = cur_v > base_v * (1.0 + tol) + _ABS_FLOOR
            result.findings.append(GateFinding(
                workload=name,
                metric=metric,
                baseline=base_v,
                current=cur_v,
                baseline_pr=pr,
                tolerance=tol,
                regression=regressed,
            ))
    return result

