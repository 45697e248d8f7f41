"""The job manager: stage scheduling with barrier semantics.

Surfer's job manager is deliberately simple (Appendix B): it dispatches one
task at a time to each slave and re-executes tasks lost to machine failures.
We reproduce that — each machine drains its queue in order; a stage is a
barrier (the Combine stage starts only after every Transfer finished, as
Algorithm 5 requires) — and extend it with the recovery machinery a
production job manager needs:

* **permanent kills**: failed tasks are detected after a heartbeat delay
  and re-dispatched to the least-loaded machine holding a surviving
  replica, with a bounded per-task retry budget;
* **transient faults**: the in-flight task is lost and re-dispatched like a
  kill, but the machine rejoins at the end of its outage window and keeps
  working through its remaining queue;
* **stragglers**: with ``speculation`` enabled, a task whose duration
  exceeds ``SPECULATION_FACTOR`` × the stage's median gets a backup copy on
  the least-loaded replica holder; the first finisher wins and the loser is
  cancelled (MapReduce-style speculative execution);
* **re-replication**: after a permanent failure the partition store
  re-creates the lost replicas on survivors and the copy traffic is charged
  to the network as background flows, so a later failure does not hit a
  degraded replica set.

One drain runs every queue — the stage's first dispatch and every retry —
with one rule each for an outage at dispatch, a task lost mid-flight, a
permanent kill's fail-over and a successful commit.  Only the pricing of a
task differs between the modes: the serial job manager runs it on one
lane (``disk_read + cpu + network + disk_write`` in one piece), the
pipelined one on four lanes (read disk, CPU, NIC, write disk) chained
phase by phase; lanes move only when a task commits.  Network occupancy is
priced by the stage's :class:`~repro.cluster.network.StageConstraints`
(co-located flows are free), and slowdowns stretch each piece via
:meth:`FaultPlan.advance`.

All recovery actions are recorded as
:class:`~repro.runtime.events.Instant` entries on the job's event stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable

from repro.errors import DataLossError, SchedulingError
from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan, Outage
from repro.cluster.network import StageConstraints
from repro.cluster.storage import PartitionStore
from repro.runtime.events import EventStream, Span, wall_timer
from repro.runtime.sanitizer import Sanitizer
from repro.runtime.tasks import Task

__all__ = ["StageScheduler", "execution_span", "HEARTBEAT_INTERVAL",
           "SPECULATION_FACTOR", "MAX_RETRIES"]

# Failure-detection latency of the heartbeat protocol, simulated seconds.
HEARTBEAT_INTERVAL = 5.0
# A task is a straggler once it exceeds this multiple of the stage median.
SPECULATION_FACTOR = 2.0
# Re-dispatch budget per task before the job is declared unschedulable.
MAX_RETRIES = 5


def _stage_pairs(tasks: list[Task]) -> frozenset[tuple[int, int]]:
    """The distinct ``(src, dst)`` machine pairs that carry bytes in a
    stage: every task's sends, receives and fetches."""
    pairs: set[tuple[int, int]] = set()
    for task in tasks:
        m = task.machine
        pairs.update([(m, dst) for dst, nbytes in task.sends
                      if nbytes > 0 and dst != m])
        pairs.update([(src, m) for src, nbytes
                      in (*task.receives, *task.fetches)
                      if nbytes > 0 and src != m])
    return frozenset(pairs)


def execution_span(task: Task, machine: int, start: float, end: float,
                   succeeded: bool, planned_duration: float = 0.0) -> Span:
    """The one record of a (possibly failed) run of ``task`` on ``machine``.

    ``planned_duration`` is the slowdown-stretched duration the task was
    dispatched with (``0.0``: unknown).  ``net_send_bytes`` is the
    traffic this task puts on the wire (its non-local sends plus its
    remote input fetches — both directions the scheduler charges to the
    network); ``net_recv_bytes`` is the inbound NIC occupancy (receives
    plus fetches).  Counters mirror the task's dispatched demands; the
    charged fraction of a failed span is ``duration / planned_duration``.
    """
    sends = sum(b for dst, b in task.sends if dst != machine)
    fetches = sum(b for src, b in task.fetches if src != machine)
    receives = sum(b for src, b in task.receives if src != machine)
    return Span(
        name=task.name,
        kind=task.kind,
        start=start,
        end=end,
        machine=machine,
        partition=task.partition,
        succeeded=succeeded,
        attempt=task.attempt,
        cpu_ops=task.cpu_ops,
        disk_read_bytes=task.disk_read_bytes,
        disk_write_bytes=task.disk_write_bytes,
        net_send_bytes=sends + fetches,
        net_recv_bytes=receives + fetches,
        planned_duration=planned_duration,
        task=task,
    )


class StageScheduler:
    """Executes stages of tasks on a cluster, with optional fault plan."""

    def __init__(
        self,
        cluster: Cluster,
        fault_plan: FaultPlan | None = None,
        store: PartitionStore | None = None,
        heartbeat: float = HEARTBEAT_INTERVAL,
        pipelined: bool = False,
        speculation: bool = False,
        events: EventStream | None = None,
    ) -> None:
        """``pipelined=True`` overlaps consecutive tasks' phases on a
        machine: while one task's output streams over the network, the
        next task's partition read proceeds on the disk (flow-shop
        pipelining over the machine's disk/CPU/NIC resources).  The
        default is the paper's strictly serial job manager.  Both modes
        support the full fault plan (kills, transients, slowdowns).

        ``speculation=True`` enables MapReduce-style backup tasks for
        stragglers."""
        self.cluster = cluster
        self.fault_plan = fault_plan or FaultPlan()
        self.store = store
        self.heartbeat = heartbeat
        self.pipelined = pipelined
        self.speculation = speculation
        self.events = events if events is not None else EventStream()
        #: SimSan hook — attached by the Surfer facade when sanitizing;
        #: observe-only, so a sanitized run stays bit-identical
        self.sanitizer: Sanitizer | None = None
        self._constraints = StageConstraints(cluster.topology, ())
        #: one constraint table per distinct pair set, built on its first
        #: stage and reused: a table is a function of the (immutable)
        #: topology and the pair set alone, and a pair a stage resolves
        #: on lookup (a retry's refetch, a speculative backup) resolves
        #: against the same sharers a fresh table would count
        self._constraint_tables: dict[frozenset[tuple[int, int]],
                                      StageConstraints] = {}
        self._seen_outages: set[tuple[int, float]] = set()
        self._stage_index = 0

    # ------------------------------------------------------------------
    def run_stage(self, tasks: list[Task]) -> Span:
        """Run ``tasks`` to completion and barrier all machine clocks.

        Returns the stage's span; its executions are the task spans the
        stream holds just before it.

        A stage that aborts (unrecoverable data loss or an exhausted
        retry budget) still records the work it already charged to the
        machines and the network, so a failed (or restarted) job's trace
        reconciles; only a completed stage barriers the clocks — an
        aborting job is unwinding, not synchronizing.
        """
        timer = wall_timer()
        start_time = max(
            (m.clock for m in self.cluster.machines), default=0.0
        )
        pairs = _stage_pairs(tasks)
        if pairs not in self._constraint_tables:
            self._constraint_tables[pairs] = StageConstraints(
                self.cluster.topology, pairs)
        self._constraints = self._constraint_tables[pairs]
        queues: dict[int, deque[Task]] = {}
        for task in tasks:
            queues.setdefault(task.machine, deque()).append(task)

        stage_execs: list[Span] = []
        failed: deque[tuple[Task, float]] = deque()
        failures = 0
        completed = False
        try:
            for machine_id in sorted(queues):
                self._drain_queue(machine_id, queues[machine_id],
                                  start_time, stage_execs, failed)

            # Re-execute tasks lost to failures on replica holders.
            guard = 0
            while failed:
                guard += 1
                if guard > 10000:
                    raise SchedulingError(
                        "failure re-execution did not converge"
                    )
                task, detect = failed.popleft()
                failures += 1
                if task.attempt >= MAX_RETRIES:
                    raise SchedulingError(
                        f"task {task.name} exceeded the retry budget "
                        f"({MAX_RETRIES} attempts)"
                    )
                # no is_down filter: a retry may wait out a transient
                new_machine = self._least_loaded(
                    task, lambda m: self.cluster.machine(m).alive)
                if new_machine is None:
                    raise SchedulingError(
                        "no machines left alive to re-execute on")
                retry = self._clone_task(task, new_machine, detect, "#retry")
                self.note_recovery(detect, "redispatch", new_machine,
                                   task=retry.name, partition=task.partition)
                self._drain_queue(new_machine, deque([retry]), start_time,
                                  stage_execs, failed)

            if self.speculation:
                self._speculate(stage_execs)
            completed = True
        finally:
            end_time = max(
                (e.end for e in stage_execs), default=start_time
            )
            if completed:
                # Barrier: every machine waits for the stage to complete.
                for m in self.cluster.machines:
                    if m.alive:
                        m.clock = max(m.clock, end_time)
            stage = self._record_stage(tasks, stage_execs, start_time,
                                       end_time, failures, timer.elapsed())
            if self.sanitizer is not None:
                # an aborted stage's events still barrier for ordering,
                # which keeps the shadow counts conserved across a restart
                self.sanitizer.on_stage(stage_execs)
        return stage

    # ------------------------------------------------------------------
    def _record_stage(self, tasks: list[Task], stage_execs: list[Span],
                      start_time: float, end_time: float,
                      failures: int, wall_seconds: float) -> Span:
        """Append the stage's execution spans, then its stage span."""
        stream = self.events
        metrics = stream.metrics
        kinds = "+".join(sorted({t.kind for t in tasks})) or "empty"
        for e in stage_execs:
            if e.succeeded:
                metrics.add("scheduler.tasks_executed")
            else:
                metrics.add("scheduler.task_failures")
        stream.spans.extend(stage_execs)
        metrics.add("scheduler.stages")
        metrics.add("scheduler.retries", failures)
        metrics.add("scheduler.wall_seconds", wall_seconds)
        stage = Span(
            name=f"stage[{self._stage_index}] {kinds}",
            kind="stage",
            start=start_time,
            end=end_time,
            wall_self_seconds=wall_seconds,
        )
        stream.span(stage)
        self._stage_index += 1
        return stage

    def note_recovery(self, time: float, kind: str, machine: int = -1,
                      task: str | None = None,
                      partition: int | None = None,
                      nbytes: int = 0) -> None:
        """Record one recovery action: an instant plus a ``recovery.<kind>``
        count.

        The scheduler's own fault handling records through this, and so
        does the job-level restart driver (checkpoint/restore in
        ``core/surfer.py``) for the actions it decides — ``job-restart``
        above all — so both land on the same instants and counters.
        """
        self.events.instant(time, task if task is not None else kind,
                            kind, machine, partition, nbytes)
        self.events.metrics.add(f"recovery.{kind}")

    def _fail_over(self, machine_id: int, tasks: list[Task], at: float,
                   failed: deque) -> None:
        """Queue lost tasks for re-dispatch, detected one heartbeat later."""
        detect = at + self.heartbeat
        for t in tasks:
            failed.append((t, detect))
            self.note_recovery(detect, "detect", machine_id, task=t.name,
                               partition=t.partition)

    def _mark_down(self, machine_id: int, outage: Outage) -> None:
        """Record a transient outage window (once per window)."""
        key = (machine_id, outage.start)
        if key in self._seen_outages:
            return
        self._seen_outages.add(key)
        machine = self.cluster.machine(machine_id)
        machine.down_seconds += outage.end - outage.start
        machine.recoveries += 1
        self.note_recovery(outage.start, "machine-down", machine_id)
        self.note_recovery(outage.end, "machine-recovered", machine_id)

    # ------------------------------------------------------------------
    def _drain_queue(
        self,
        machine_id: int,
        queue: deque[Task],
        stage_start: float,
        stage_execs: list[Span],
        failed: deque,
    ) -> None:
        """Run one machine's queue in order, through any outage.

        ``ready`` is when the machine takes its next task: a serial
        machine takes it when the last one ends, a pipelined one at once
        (the task then queues on the lanes).  Faults use the task's
        window ``[start, end)``: an outage already open at dispatch makes
        the queue wait it out; one that opens inside the window loses the
        in-flight task, charged up to the failure point.
        """
        machine = self.cluster.machine(machine_id)
        plan = self.fault_plan
        ready = max(machine.clock, stage_start)
        lanes = [ready] * (4 if self.pipelined else 1)
        while queue:
            task = queue.popleft()
            start = max(ready, task.earliest_start)
            outage = plan.next_outage(machine_id, start)
            if outage is None or outage.start > start:
                ends, busy = self._run_lanes(task, machine_id, start, lanes)
                end = ends[-1]
                if outage is None or end <= outage.start:
                    self._commit(task, machine_id, start, end, busy,
                                 stage_execs)
                    lanes = ends
                    if not self.pipelined:
                        ready = end
                    continue
                # The task dies mid-flight; time up to the outage is
                # wasted.  The execution records the full dispatched
                # duration so trace analysis can prorate bytes over the
                # partial run.
                machine.busy_time += outage.start - start
                machine.clock = max(machine.clock, outage.start)
                stage_execs.append(
                    execution_span(task, machine_id, start, outage.start,
                                   False, planned_duration=end - start)
                )
            if outage.permanent:
                self._mark_dead(machine_id, outage.start)
                self._fail_over(machine_id, [task, *queue], outage.start,
                                failed)
                return
            self._mark_down(machine_id, outage)
            if outage.start > start:
                # the in-flight task fails over and the machine rejoins
                # at the end of the window with its queue.  The clock
                # stays at the failure point until real work moves it —
                # an emptied queue leaves no clock beyond the last
                # recorded span.  The pipelined lanes restart cold after
                # the window; the serial lane holds at the failure point,
                # so its next dispatch waits the window out (or, dead by
                # then, stops the clock there).
                self._fail_over(machine_id, [task], outage.start, failed)
                ready = (max(ready, outage.end) if self.pipelined
                         else outage.start)
                lanes = [ready] * len(lanes)
            else:
                # transiently down at dispatch time: the queue simply
                # waits out the outage on the machine
                ready = max(ready, outage.end)
                lanes = [max(lane, ready) for lane in lanes]
                machine.clock = max(machine.clock, ready)
                queue.appendleft(task)

    def _run_lanes(self, task: Task, machine_id: int, start: float,
                   lanes: list[float]) -> tuple[list[float], float]:
        """Price ``task`` arriving at ``start`` on the machine's lanes.

        Each piece starts when both the task's previous piece and the
        lane's previous occupant have finished.  Returns each lane's end
        and the busy time (the sum of the pieces — identical to serial
        execution; pipelining shrinks only the elapsed time).
        """
        plan = self.fault_plan
        if self.pipelined:
            # four lanes: read disk, CPU, NIC, write disk (the testbed
            # machines carry two disks — Appendix F)
            spec = self.cluster.machine(machine_id).spec
            outbound, inbound = self._network_times(task, machine_id,
                                                    spec.nic_bps)
            pieces = [
                spec.disk_read_time(task.disk_read_bytes)
                * task.disk_penalty,
                spec.cpu_time(task.cpu_ops),
                outbound + inbound,
                spec.disk_write_time(task.disk_write_bytes)
                * task.disk_penalty,
            ]
        else:
            pieces = [self._task_duration(task, machine_id)]
        ends: list[float] = []
        busy = 0.0
        t = start
        for lane, work in zip(lanes, pieces):
            t0 = max(t, lane)
            t = plan.advance(machine_id, t0, work)
            busy += t - t0
            ends.append(t)
        return ends, busy

    def _commit(self, task: Task, machine_id: int, start: float,
                end: float, busy: float,
                stage_execs: list[Span]) -> None:
        """Record a successful execution and charge its resources."""
        machine = self.cluster.machine(machine_id)
        self._charge(task, machine_id)
        machine.clock = max(machine.clock, end)
        machine.busy_time += busy
        machine.tasks_executed += 1
        stage_execs.append(
            execution_span(task, machine_id, start, end, True,
                           planned_duration=end - start)
        )

    # ------------------------------------------------------------------
    def _network_times(self, task: Task, machine_id: int,
                       nic_bps: float) -> tuple[float, float]:
        """Sender and receiver occupancy of ``task``, priced by stage."""
        net = self.cluster.network
        constraints = self._constraints
        return (
            net.flows_time(machine_id, task.sends, nic_bps, constraints),
            net.flows_time(machine_id, [*task.receives, *task.fetches],
                           nic_bps, constraints, outbound=False),
        )

    def _task_duration(self, task: Task, machine_id: int) -> float:
        spec = self.cluster.machine(machine_id).spec
        duration = (
            spec.disk_read_time(task.disk_read_bytes) * task.disk_penalty
            + spec.cpu_time(task.cpu_ops)
            + spec.disk_write_time(task.disk_write_bytes)
            * task.disk_penalty
        )
        outbound, inbound = self._network_times(task, machine_id, spec.nic_bps)
        return duration + outbound + inbound

    def _charge(self, task: Task, machine_id: int) -> None:
        """Record resource counters for a successful execution; the
        network counts the task's flows in one update."""
        machine = self.cluster.machine(machine_id)
        machine.disk_read_bytes += int(task.disk_read_bytes)
        machine.disk_write_bytes += int(task.disk_write_bytes)
        machine.cpu_ops += task.cpu_ops
        for dst, nbytes in task.sends:
            if dst != machine_id:
                machine.bytes_sent += int(nbytes)
                self.cluster.machine(dst).bytes_received += int(nbytes)
        for src, nbytes in task.fetches:
            if src != machine_id:
                self.cluster.machine(src).bytes_sent += int(nbytes)
                machine.bytes_received += int(nbytes)
        self.cluster.network.account_flows(machine_id, task.sends,
                                           task.fetches)

    # ------------------------------------------------------------------
    def _mark_dead(self, machine_id: int, kill_time: float) -> None:
        machine = self.cluster.machine(machine_id)
        if not machine.alive:
            return
        machine.fail(kill_time)
        self.note_recovery(kill_time, "machine-down", machine_id)
        if self.store is None:
            return
        try:
            self.store.handle_failure(machine_id)
        except DataLossError:
            self.note_recovery(kill_time, "data-loss", machine_id)
            raise
        self._re_replicate(kill_time + self.heartbeat)

    def _re_replicate(self, now: float) -> None:
        """Re-create lost replicas in the background; charge the copies."""
        cluster = self.cluster
        for p, src, dst in self.store.re_replicate(
            cluster.alive_machines()
        ):
            nbytes = self.store.partition_nbytes(p)
            if nbytes > 0:
                cluster.network.transfer(src, dst, nbytes, background=True)
                src_m = cluster.machine(src)
                dst_m = cluster.machine(dst)
                src_m.disk_read_bytes += nbytes
                src_m.bytes_sent += nbytes
                dst_m.disk_write_bytes += nbytes
                dst_m.bytes_received += nbytes
            self.events.metrics.add("scheduler.re_replication_bytes",
                                    nbytes)
            self.note_recovery(now, "re-replicate", dst, partition=p,
                               nbytes=nbytes)

    # ------------------------------------------------------------------
    def _least_loaded(self, task: Task,
                      usable: Callable[[int], bool]) -> int | None:
        """The least-loaded ``usable`` machine to (re-)run ``task`` on.

        Prefers a holder of the task's partition (after failover the
        store only lists survivors), falling back to any alive machine —
        the greedy job manager's rule.  Replica order (primary first)
        breaks clock ties, so the promoted survivor beats a freshly
        re-replicated copy.  ``None`` when no machine is usable.
        """
        def clock(m: int) -> float:
            return self.cluster.machine(m).clock

        if self.store is not None and task.partition is not None:
            holders = [m for m in self.store.replicas(task.partition)
                       if usable(m)]
            if holders:
                return min(holders, key=clock)
        machines = [m for m in self.cluster.alive_machines() if usable(m)]
        return min(machines, key=clock, default=None)

    def _clone_task(self, task: Task, new_machine: int,
                    earliest: float, suffix: str) -> Task:
        """Clone a task for re-execution or speculative backup.

        Combine-type tasks must re-fetch their remote inputs before
        re-running (Appendix B): the input transfers become explicit sends
        charged against the network (modeled as reads from the sources).
        The clone reads its partition on its own machine, so it drops the
        original's remote ``fetches``.
        """
        refetch = [
            (src, nbytes)
            for src, nbytes in task.input_transfers
            if src != new_machine and self.cluster.machine(src).alive
        ]
        return replace(task, name=task.name + suffix, machine=new_machine,
                       sends=[*task.sends, *refetch], fetches=[],
                       earliest_start=earliest, attempt=task.attempt + 1)

    # ------------------------------------------------------------------
    def _speculate(self, stage_execs: list[Span]) -> None:
        """Launch backup copies for stragglers; first finisher wins.

        A machine's *final* task of the stage is a speculation candidate
        when its duration exceeds ``SPECULATION_FACTOR`` × the stage's
        median task duration: that is the task pinning the stage barrier,
        so rescuing it shortens the makespan.  The backup launches on the
        least-loaded alive replica holder at the moment the straggler is
        detected; whichever copy finishes first wins and the other is
        cancelled there and then.
        """
        succ = [e for e in stage_execs if e.succeeded]
        if len(succ) < 3:
            return
        durations = sorted(e.duration for e in succ)
        median = durations[len(durations) // 2]
        if median <= 0:
            return
        threshold = SPECULATION_FACTOR * median
        last: dict[int, Span] = {}
        for e in succ:
            cur = last.get(e.machine)
            if cur is None or e.end > cur.end:
                last[e.machine] = e
        candidates = [
            e for e in last.values()
            if e.duration > threshold
            and abs(e.end - self.cluster.machine(e.machine).clock) < 1e-9
        ]
        candidates.sort(key=lambda e: (e.start + threshold, e.machine))
        for e in candidates:
            self._speculate_one(e, stage_execs, threshold)

    def _speculate_one(self, e: Span, stage_execs: list[Span],
                       threshold: float) -> None:
        task = e.task
        detect = e.start + threshold
        backup_machine = self._least_loaded(
            task, lambda m: (m != e.machine
                             and self.cluster.machine(m).alive
                             and not self.fault_plan.is_down(m, detect)))
        if backup_machine is None:
            return
        holder = self.cluster.machine(backup_machine)
        if holder.clock >= e.end:
            return  # no capacity frees up before the original finishes
        backup = self._clone_task(task, backup_machine, detect, "#spec")
        b_start = max(detect, holder.clock)
        duration = self._task_duration(backup, backup_machine)
        b_end = self.fault_plan.advance(backup_machine, b_start, duration)
        self.note_recovery(detect, "spec-launch", backup_machine,
                           task=backup.name, partition=task.partition)
        if b_end < e.end:
            # Backup wins; the original attempt is cancelled at b_end.
            self._commit(backup, backup_machine, b_start, b_end,
                         b_end - b_start, stage_execs)
            original = self.cluster.machine(e.machine)
            original.busy_time -= e.end - b_end
            original.clock = b_end
            idx = next(i for i, x in enumerate(stage_execs) if x is e)
            stage_execs[idx] = execution_span(
                task, e.machine, e.start, b_end, False,
                planned_duration=e.planned_duration or e.duration,
            )
            # The original was charged in full when it completed, before
            # the rescue was decided; the cancellation does not refund
            # the machine counters.  Expose that charged-but-cancelled
            # cost so span totals still reconcile with the cluster.
            m = self.events.metrics
            m.add("scheduler.spec_charged_disk_read_bytes",
                  int(task.disk_read_bytes))
            m.add("scheduler.spec_charged_disk_write_bytes",
                  int(task.disk_write_bytes))
            m.add("scheduler.spec_charged_network_bytes",
                  sum(int(b) for d, b in task.sends if d != e.machine)
                  + sum(int(b) for s, b in task.fetches if s != e.machine))
            self.note_recovery(b_end, "spec-win", backup_machine,
                               task=backup.name, partition=task.partition)
            self.note_recovery(b_end, "spec-cancel", e.machine,
                               task=task.name, partition=task.partition)
        else:
            # Original wins; the backup is cancelled when it finishes.
            # The wasted backup time occupies the holder but moves no
            # bytes (the copy never commits its output).
            holder.clock = max(holder.clock, e.end)
            holder.busy_time += e.end - b_start
            stage_execs.append(
                execution_span(backup, backup_machine, b_start, e.end,
                               False, planned_duration=b_end - b_start)
            )
            self.note_recovery(e.end, "spec-cancel", backup_machine,
                               task=backup.name, partition=task.partition)
