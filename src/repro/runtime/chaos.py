"""Randomized chaos-testing harness for the recovery machinery.

Fault-tolerance code is only as good as the fault schedules it has
seen.  The unit tests pin down hand-picked scenarios; this module
generates *randomized* (but fully seeded) fault schedules across the
whole injection matrix — permanent kills, transient outages, slowdowns,
and correlated whole-replica-set loss — runs the same job under each,
and checks the recovery invariant:

    every schedule either yields a result bit-identical to the
    fault-free baseline, or a cleanly-reported failure (restart budget
    exhausted / cluster gone) — and in both cases the run's event
    stream must reconcile against its cluster metrics.

Anything else — a different result, an exception escaping the driver,
a trace that does not add up — is a **violation** and fails the sweep.

Everything is deterministic: schedule ``i`` of a sweep draws from
``np.random.default_rng([seed, i])``, so a violating schedule can be
replayed in isolation by seed alone (``repro chaos --seed ...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import FaultInjectionError, JobError
from repro.cluster.faults import FaultPlan
from repro.core.surfer import JobResult, Surfer
from repro.runtime.events import reconcile, wall_timer

__all__ = ["ChaosOutcome", "ChaosReport", "random_fault_plan",
           "results_identical", "run_chaos_sweep"]


def random_fault_plan(
    rng: np.random.Generator,
    num_machines: int,
    horizon: float,
    replica_sets: Sequence[Sequence[int]] | None = None,
    max_kills: int | None = None,
) -> FaultPlan:
    """One seeded random fault schedule over the injection matrix.

    Draws, in order (so a given ``rng`` state maps to exactly one plan):

    * with probability ~0.3 (when ``replica_sets`` is given), a
      *correlated loss*: every holder of one randomly chosen partition
      is killed inside a tight window — the scenario that defeats
      replica promotion and forces a job-level restart;
    * 0..``max_kills`` further independent permanent kills at uniform
      times in ``[0, horizon)``;
    * 0..3 transient outages and 0..2 slowdowns on random machines
      (overlapping windows are skipped rather than re-drawn, keeping
      the draw sequence deterministic).

    ``max_kills`` defaults to half the cluster; the correlated-loss
    kills count against it.  ``horizon`` should comfortably cover the
    fault-free run so late schedules still land inside the job.
    """
    if max_kills is None:
        max_kills = max(1, num_machines // 2)
    plan = FaultPlan()
    killed: set[int] = set()
    if replica_sets and rng.random() < 0.3:
        target = replica_sets[int(rng.integers(0, len(replica_sets)))]
        t0 = float(rng.uniform(0.0, horizon))
        width = max(horizon * 0.02, 1e-3)
        for m in target:
            if len(killed) >= max_kills:
                break
            if int(m) in killed:
                continue
            plan.add_kill(int(m), t0 + float(rng.uniform(0.0, width)))
            killed.add(int(m))
    n_kills = int(rng.integers(0, max_kills + 1))
    for m in rng.permutation(num_machines):
        if len(killed) >= n_kills or len(killed) >= max_kills:
            break
        machine = int(m)
        if machine in killed:
            continue
        plan.add_kill(machine, float(rng.uniform(0.0, horizon)))
        killed.add(machine)
    for _ in range(int(rng.integers(0, 4))):
        machine = int(rng.integers(0, num_machines))
        start = float(rng.uniform(0.0, horizon))
        downtime = float(rng.uniform(horizon * 0.01, horizon * 0.2))
        try:
            plan.add_transient(machine, start, downtime)
        except FaultInjectionError:
            pass  # overlapping window: skip, keep the draw count fixed
    for _ in range(int(rng.integers(0, 3))):
        machine = int(rng.integers(0, num_machines))
        start = float(rng.uniform(0.0, horizon))
        duration = float(rng.uniform(horizon * 0.05, horizon * 0.3))
        factor = float(rng.uniform(1.5, 4.0))
        try:
            plan.add_slowdown(machine, start, duration, factor)
        except FaultInjectionError:
            pass
    return plan


def results_identical(a: Any, b: Any) -> bool:
    """Exact (bit-level, not approximate) equality of job results.

    Arrays must match in shape, dtype and every element; containers
    recurse; everything else falls back to ``==``.  No tolerance — the
    recovery invariant is *bit-identical*, which the deterministic
    UDF/engine discipline makes achievable.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return bool(a.shape == b.shape and a.dtype == b.dtype
                    and np.array_equal(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(results_identical(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(results_identical(x, y) for x, y in zip(a, b)))
    return bool(a == b)


@dataclass(frozen=True)
class ChaosOutcome:
    """What one random schedule did to the job.

    ``status`` is ``"identical"`` (completed, bit-identical to the
    fault-free baseline), ``"clean-failure"`` (a reported failed job —
    restart budget exhausted or cluster gone) or ``"violation"``
    (anything else; ``detail`` says what went wrong).
    """

    index: int
    status: str
    kills: int
    transients: int
    slowdowns: int
    restarts: int = 0
    checkpoints: int = 0
    detail: str | None = None
    #: real Python seconds this schedule's job took (0.0 if it escaped)
    wall_s: float = 0.0


@dataclass
class ChaosReport:
    """Aggregate of one sweep; ``ok`` is the recovery invariant."""

    seed: int
    baseline: JobResult
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    #: the completed (non-failed) job with the most restarts, kept so
    #: callers can report/bench the recovery overhead next to the
    #: baseline without re-running its schedule
    restarted_job: JobResult | None = None
    #: real Python seconds for the fault-free baseline run alone (the
    #: deployment build is excluded; benches must not report the whole
    #: sweep's wall clock as a per-job number)
    baseline_wall_s: float = 0.0
    #: real Python seconds for the retained ``restarted_job`` run
    restarted_wall_s: float = 0.0

    @property
    def violations(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if o.status == "violation"]

    @property
    def identical(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "identical")

    @property
    def clean_failures(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "clean-failure")

    @property
    def total_restarts(self) -> int:
        return sum(o.restarts for o in self.outcomes)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"chaos sweep: {len(self.outcomes)} schedules (seed {self.seed})",
            f"  identical results: {self.identical}",
            f"  clean failures:    {self.clean_failures}",
            f"  violations:        {len(self.violations)}",
            f"  job restarts:      {self.total_restarts}",
        ]
        for o in self.violations:
            lines.append(f"  VIOLATION schedule {o.index}: {o.detail}")
        return "\n".join(lines)


def run_chaos_sweep(
    surfer: Surfer,
    run_job: Callable[[Surfer, FaultPlan | None], JobResult],
    schedules: int,
    seed: int,
) -> ChaosReport:
    """Run ``schedules`` random fault schedules and check the invariant.

    Every schedule runs on the one deployed ``surfer`` (a job's
    failures and restarts never outlive it); ``run_job(surfer, plan)``
    runs the workload — with a checkpoint policy enabled, or the sweep
    will simply count every unabsorbed data loss as a clean failure and
    never exercise restart.  Schedule ``i`` draws from
    ``default_rng([seed, i])``; the fault horizon is the fault-free
    response time times 1.5.
    """
    if schedules < 1:
        raise JobError("chaos sweep needs at least one schedule")
    timer = wall_timer()
    baseline = run_job(surfer, None)
    baseline_wall = timer.elapsed()
    if baseline.failed:
        raise JobError(f"fault-free baseline failed: {baseline.error}")
    base_issues = reconcile(baseline)
    if base_issues:
        raise JobError(
            f"fault-free baseline does not reconcile: {base_issues}"
        )
    num_machines = surfer.cluster.num_machines
    replica_sets = [surfer.store.replicas(p)
                    for p in range(surfer.store.num_partitions)]
    horizon = max(baseline.response_time * 1.5, 1.0)

    report = ChaosReport(seed=seed, baseline=baseline,
                         baseline_wall_s=baseline_wall)
    for i in range(schedules):
        rng = np.random.default_rng([seed, i])
        plan = random_fault_plan(rng, num_machines, horizon,
                                 replica_sets=replica_sets)
        counts = (len(plan.kills), len(plan.transients),
                  len(plan.slowdowns))
        job: JobResult | None = None
        status = "identical"
        detail: str | None = None
        wall = 0.0
        try:
            timer = wall_timer()
            job = run_job(surfer, plan)
            wall = timer.elapsed()
        except Exception as exc:  # noqa: BLE001 -- any escape is a violation
            status = "violation"
            detail = f"escaped {type(exc).__name__}: {exc}"
        if job is not None:
            issues = reconcile(job)
            if issues:
                status = "violation"
                detail = "trace does not reconcile: " + "; ".join(issues)
            elif job.failed:
                if job.error:
                    status = "clean-failure"
                    detail = job.error
                else:
                    status = "violation"
                    detail = "failed job without an error message"
            elif not results_identical(baseline.result, job.result):
                status = "violation"
                detail = "result differs from the fault-free baseline"
        report.outcomes.append(ChaosOutcome(
            index=i,
            status=status,
            kills=counts[0],
            transients=counts[1],
            slowdowns=counts[2],
            restarts=job.restarts if job is not None else 0,
            checkpoints=job.checkpoints if job is not None else 0,
            detail=detail,
            wall_s=wall,
        ))
        if (status == "identical" and job is not None and job.restarts
                and (report.restarted_job is None
                     or job.restarts > report.restarted_job.restarts)):
            report.restarted_job = job
            report.restarted_wall_s = wall
    return report
