"""The job manager: stage scheduling with barrier semantics.

Surfer's job manager is deliberately simple (Appendix B): it dispatches one
task at a time to each slave and re-executes tasks lost to machine failures.
We reproduce that — each machine runs its queue serially; a stage is a
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
  exceeds ``speculation_factor`` × the stage's median gets a backup copy on
  the least-loaded replica holder; the first finisher wins and the loser is
  cancelled (MapReduce-style speculative execution);
* **re-replication**: after a permanent failure the partition store
  re-creates the lost replicas on survivors and the copy traffic is charged
  to the network as background flows, so a later failure does not hit a
  degraded replica set.

All recovery actions are recorded as
:class:`~repro.runtime.events.Instant` entries on the job's event stream.

Timing of one task: ``disk_read + cpu + disk_write`` at the machine's
rates plus its sender and receiver network occupancy, priced by the
stage's :class:`~repro.cluster.network.StageConstraints` (co-located
flows are free), with slowdowns stretching it via :meth:`FaultPlan.advance`.
"""

from __future__ import annotations

from collections import deque

from repro.errors import DataLossError, SchedulingError
from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan, Outage
from repro.cluster.network import StageConstraints
from repro.cluster.storage import PartitionStore
from repro.runtime.events import EventStream, Span, wall_timer
from repro.runtime.sanitizer import Sanitizer
from repro.runtime.tasks import StageResult, Task, TaskExecution

__all__ = ["StageScheduler", "HEARTBEAT_INTERVAL", "SPECULATION_FACTOR",
           "MAX_RETRIES"]

# Failure-detection latency of the heartbeat protocol, simulated seconds.
HEARTBEAT_INTERVAL = 5.0
# A task is a straggler once it exceeds this multiple of the stage median.
SPECULATION_FACTOR = 2.0
# Re-dispatch budget per task before the job is declared unschedulable.
MAX_RETRIES = 5


def _stage_pairs(tasks: list[Task]) -> set[tuple[int, int]]:
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
    return pairs


def _execution_span(e: TaskExecution) -> Span:
    """One observability span per task execution.

    ``net_send_bytes`` is the traffic this task puts on the wire (its
    non-local sends plus its remote input fetches — both directions the
    scheduler charges to the network); ``net_recv_bytes`` is the inbound
    NIC occupancy (receives plus fetches).  Counters mirror the task's
    dispatched demands; the charged fraction of a failed span is
    ``duration / planned_duration``.
    """
    task = e.task
    sends = sum(b for dst, b in task.sends if dst != e.machine)
    fetches = sum(b for src, b in task.fetches if src != e.machine)
    receives = sum(b for src, b in task.receives if src != e.machine)
    return Span(
        name=task.name,
        kind=task.kind,
        start=e.start,
        end=e.end,
        machine=e.machine,
        partition=task.partition,
        succeeded=e.succeeded,
        attempt=task.attempt,
        cpu_ops=task.cpu_ops,
        disk_read_bytes=task.disk_read_bytes,
        disk_write_bytes=task.disk_write_bytes,
        net_send_bytes=sends + fetches,
        net_recv_bytes=receives + fetches,
        planned_duration=e.planned_duration,
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
        speculation_factor: float = SPECULATION_FACTOR,
        max_retries: int = MAX_RETRIES,
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
        if speculation_factor <= 1.0:
            raise SchedulingError("speculation_factor must be > 1")
        if max_retries < 1:
            raise SchedulingError("max_retries must be >= 1")
        self.cluster = cluster
        self.fault_plan = fault_plan or FaultPlan()
        self.store = store
        self.heartbeat = heartbeat
        self.pipelined = pipelined
        self.speculation = speculation
        self.speculation_factor = speculation_factor
        self.max_retries = max_retries
        self.events = events if events is not None else EventStream()
        #: SimSan hook — attached by the Surfer facade when sanitizing;
        #: observe-only, so a sanitized run stays bit-identical
        self.sanitizer: Sanitizer | None = None
        self.executions: list[TaskExecution] = []
        self.re_replication_bytes = 0
        self.data_loss: str | None = None
        self._constraints = StageConstraints(cluster.topology, ())
        self._seen_outages: set[tuple[int, float]] = set()
        self._stage_index = 0

    # ------------------------------------------------------------------
    def run_stage(self, tasks: list[Task]) -> StageResult:
        """Run ``tasks`` to completion and barrier all machine clocks."""
        timer = wall_timer()
        start_time = max(
            (m.clock for m in self.cluster.machines), default=0.0
        )
        self._constraints = StageConstraints(self.cluster.topology,
                                             _stage_pairs(tasks))
        queues: dict[int, deque[Task]] = {}
        for task in tasks:
            queues.setdefault(task.machine, deque()).append(task)

        stage_execs: list[TaskExecution] = []
        failed: deque[tuple[Task, float]] = deque()
        failures = 0
        instants_before = len(self.events.instants)
        drain = (self._drain_queue_pipelined if self.pipelined
                 else self._drain_queue)

        try:
            for machine_id in sorted(queues):
                drain(machine_id, queues[machine_id], start_time,
                      stage_execs, failed)

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
                if task.attempt >= self.max_retries:
                    raise SchedulingError(
                        f"task {task.name} exceeded the retry budget "
                        f"({self.max_retries} attempts)"
                    )
                new_machine = self._reassign(task)
                retry = self._clone_task(task, new_machine, detect, "#retry")
                self._event(detect, "redispatch", new_machine,
                            task=retry.name, partition=task.partition)
                drain(new_machine, deque([retry]), start_time,
                      stage_execs, failed)

            if self.speculation:
                self._speculate(stage_execs)
        except (DataLossError, SchedulingError):
            # The stage is aborting (unrecoverable data loss or an
            # exhausted retry budget), but the work already executed was
            # charged to the machines and the network — record its spans
            # so the failed (or restarted) job's trace still reconciles.
            # No barrier: the job is unwinding, not synchronizing.
            abort_end = max(
                (e.end for e in stage_execs), default=start_time
            )
            self.executions.extend(stage_execs)
            self._record_stage(tasks, stage_execs, start_time, abort_end,
                               failures, timer.elapsed())
            if self.sanitizer is not None:
                # keep the shadow counts conserved across the restart;
                # the aborted stage's events still barrier for ordering
                self.sanitizer.on_stage(stage_execs)
            raise

        end_time = max(
            (e.end for e in stage_execs), default=start_time
        )
        # Barrier: every machine waits for the stage to complete.
        for m in self.cluster.machines:
            if m.alive:
                m.clock = max(m.clock, end_time)
        self.executions.extend(stage_execs)
        self._record_stage(tasks, stage_execs, start_time, end_time,
                           failures, timer.elapsed())
        if self.sanitizer is not None:
            self.sanitizer.on_stage(stage_execs)
        return StageResult(
            executions=stage_execs,
            start_time=start_time,
            end_time=end_time,
            failures=failures,
            recovery_events=self.events.instants[instants_before:],
        )

    # ------------------------------------------------------------------
    def _record_stage(self, tasks: list[Task],
                      stage_execs: list[TaskExecution],
                      start_time: float, end_time: float,
                      failures: int, wall_seconds: float) -> None:
        """Emit one stage span plus one span per task execution."""
        stream = self.events
        metrics = stream.metrics
        kinds = "+".join(sorted({t.kind for t in tasks})) or "empty"
        for e in stage_execs:
            stream.span(_execution_span(e))
            if e.succeeded:
                metrics.add("scheduler.tasks_executed")
            else:
                metrics.add("scheduler.task_failures")
        metrics.add("scheduler.stages")
        metrics.add("scheduler.retries", failures)
        metrics.add("scheduler.wall_seconds", wall_seconds)
        stream.span(Span(
            name=f"stage[{self._stage_index}] {kinds}",
            kind="stage",
            start=start_time,
            end=end_time,
            wall_self_seconds=wall_seconds,
        ))
        self._stage_index += 1

    def note_recovery(self, time: float, kind: str, machine: int = -1,
                      task: str | None = None,
                      partition: int | None = None,
                      nbytes: int = 0) -> None:
        """Record a recovery action decided *outside* the scheduler.

        The job-level restart driver (checkpoint/restore in
        ``core/surfer.py``) announces its actions — ``job-restart`` above
        all — through this hook so they land on the same instants and
        ``recovery.*`` counters as the scheduler's own fault handling.
        """
        self._event(time, kind, machine, task, partition, nbytes)

    def _event(self, time: float, kind: str, machine: int,
               task: str | None = None, partition: int | None = None,
               nbytes: int = 0) -> None:
        self.events.instant(time, task if task is not None else kind,
                            kind, machine, partition, nbytes)
        self.events.metrics.add(f"recovery.{kind}")

    def _fail_over(self, machine_id: int, tasks: list[Task], at: float,
                   failed: deque) -> None:
        """Queue lost tasks for re-dispatch, detected one heartbeat later."""
        detect = at + self.heartbeat
        for t in tasks:
            failed.append((t, detect))
            self._event(detect, "detect", machine_id, task=t.name,
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
        self._event(outage.start, "machine-down", machine_id)
        self._event(outage.end, "machine-recovered", machine_id)

    # ------------------------------------------------------------------
    def _drain_queue(
        self,
        machine_id: int,
        queue: deque[Task],
        stage_start: float,
        stage_execs: list[TaskExecution],
        failed: deque,
    ) -> None:
        machine = self.cluster.machine(machine_id)
        plan = self.fault_plan
        while queue:
            task = queue.popleft()
            start = max(machine.clock, stage_start, task.earliest_start)
            outage = plan.next_outage(machine_id, start)
            if outage is not None and outage.start <= start:
                if outage.permanent:
                    self._mark_dead(machine_id, outage.start)
                    self._fail_over(machine_id, [task, *queue],
                                    outage.start, failed)
                    return
                # transiently down at dispatch time: the queue simply
                # waits out the outage on the machine
                self._mark_down(machine_id, outage)
                machine.clock = max(machine.clock, outage.end)
                queue.appendleft(task)
                continue
            duration = self._task_duration(task, machine_id)
            end = plan.advance(machine_id, start, duration)
            if outage is not None and end > outage.start:
                # Task dies mid-flight; time up to the outage is wasted.
                # The execution records the full dispatched duration so
                # trace analysis can prorate bytes over the partial run.
                machine.busy_time += outage.start - start
                machine.clock = outage.start
                stage_execs.append(
                    TaskExecution(task, machine_id, start,
                                  outage.start, False,
                                  planned_duration=end - start)
                )
                if outage.permanent:
                    self._mark_dead(machine_id, outage.start)
                    self._fail_over(machine_id, [task, *queue],
                                    outage.start, failed)
                    return
                # transient: the in-flight task fails over, the machine
                # rejoins at the end of the window with its queue.  The
                # clock stays at the failure point — if more work remains
                # the next dispatch waits out the window (identical
                # timing), and an emptied queue leaves no clock beyond
                # the last recorded span.
                self._mark_down(machine_id, outage)
                self._fail_over(machine_id, [task], outage.start, failed)
                continue
            self._charge(task, machine_id)
            machine.clock = end
            machine.busy_time += end - start
            machine.tasks_executed += 1
            stage_execs.append(
                TaskExecution(task, machine_id, start, end, True,
                              planned_duration=end - start)
            )

    def _drain_queue_pipelined(
        self,
        machine_id: int,
        queue: deque[Task],
        stage_start: float,
        stage_execs: list[TaskExecution],
        failed: deque,
    ) -> None:
        """Flow-shop execution: disk, CPU and NIC are independent lanes.

        Each task runs its phases in order (read -> compute -> network ->
        write); a phase starts when both the previous phase of the same
        task and the lane's previous occupant have finished.  Total work
        (busy time, byte counters) is identical to serial execution —
        only the elapsed time shrinks.  Faults use the task's full
        pipeline window [arrival, write_end): an outage inside it loses
        the in-flight task, and after a transient recovery the lanes
        restart cold at the end of the window.
        """
        machine = self.cluster.machine(machine_id)
        spec = machine.spec
        plan = self.fault_plan
        base = max(machine.clock, stage_start)
        # four lanes: read disk, CPU, NIC, write disk (the testbed
        # machines carry two disks — Appendix F)
        read_free = cpu_free = net_free = write_free = base
        while queue:
            task = queue.popleft()
            arrival = max(base, task.earliest_start)
            outage = plan.next_outage(machine_id, arrival)
            if outage is not None and outage.start <= arrival:
                if outage.permanent:
                    self._mark_dead(machine_id, outage.start)
                    self._fail_over(machine_id, [task, *queue],
                                    outage.start, failed)
                    return
                self._mark_down(machine_id, outage)
                base = max(base, outage.end)
                read_free = max(read_free, base)
                cpu_free = max(cpu_free, base)
                net_free = max(net_free, base)
                write_free = max(write_free, base)
                machine.clock = max(machine.clock, base)
                queue.appendleft(task)
                continue
            read_time = (spec.disk_read_time(task.disk_read_bytes)
                         * task.disk_penalty)
            cpu_time = spec.cpu_time(task.cpu_ops)
            outbound, inbound = self._network_times(task, machine_id,
                                                    spec.nic_bps)
            net_time = outbound + inbound
            write_time = (spec.disk_write_time(task.disk_write_bytes)
                          * task.disk_penalty)
            read_start = max(arrival, read_free)
            read_end = plan.advance(machine_id, read_start, read_time)
            cpu_start = max(read_end, cpu_free)
            cpu_end = plan.advance(machine_id, cpu_start, cpu_time)
            net_start = max(cpu_end, net_free)
            net_end = plan.advance(machine_id, net_start, net_time)
            write_start = max(net_end, write_free)
            write_end = plan.advance(machine_id, write_start, write_time)
            if outage is not None and write_end > outage.start:
                # the pipeline stalls at the outage; the in-flight task
                # is lost along with its partial overlapped progress
                machine.busy_time += max(0.0, outage.start - arrival)
                machine.clock = max(machine.clock, outage.start)
                stage_execs.append(
                    TaskExecution(task, machine_id, arrival,
                                  outage.start, False,
                                  planned_duration=write_end - arrival)
                )
                if outage.permanent:
                    self._mark_dead(machine_id, outage.start)
                    self._fail_over(machine_id, [task, *queue],
                                    outage.start, failed)
                    return
                # the lanes restart cold after the window, but the clock
                # stays at the failure point until real work moves it —
                # an emptied queue must not leave a clock past the last
                # recorded span
                self._mark_down(machine_id, outage)
                self._fail_over(machine_id, [task], outage.start, failed)
                base = max(base, outage.end)
                read_free = cpu_free = net_free = write_free = base
                continue
            duration = ((read_end - read_start) + (cpu_end - cpu_start)
                        + (net_end - net_start) + (write_end - write_start))
            read_free, cpu_free = read_end, cpu_end
            net_free, write_free = net_end, write_end
            self._charge(task, machine_id)
            machine.clock = max(machine.clock, write_end)
            machine.busy_time += duration
            machine.tasks_executed += 1
            stage_execs.append(
                TaskExecution(task, machine_id, arrival, write_end, True,
                              planned_duration=write_end - arrival)
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
        self._event(kill_time, "machine-down", machine_id)
        if self.store is None:
            return
        try:
            self.store.handle_failure(machine_id)
        except DataLossError as exc:
            self.data_loss = str(exc)
            self._event(kill_time, "data-loss", machine_id)
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
            self.re_replication_bytes += nbytes
            self.events.metrics.add("scheduler.re_replication_bytes",
                                    nbytes)
            self._event(now, "re-replicate", dst, partition=p,
                        nbytes=nbytes)

    # ------------------------------------------------------------------
    def _reassign(self, task: Task) -> int:
        """Pick the machine to re-execute a failed task on.

        Prefers the least-loaded alive holder of the task's partition
        (after failover the store only lists survivors), falling back to
        the least-loaded alive machine — the greedy job manager's rule.
        """
        dead = {m.machine_id for m in self.cluster.machines
                if not m.alive}
        if self.store is not None and task.partition is not None:
            # replica order (primary first) breaks clock ties, so the
            # promoted survivor beats a freshly re-replicated copy
            holders = [m for m in self.store.replicas(task.partition)
                       if m not in dead]
            if holders:
                return min(holders,
                           key=lambda m: self.cluster.machine(m).clock)
        alive = self.cluster.alive_machines()
        if not alive:
            raise SchedulingError("no machines left alive to re-execute on")
        return min(alive, key=lambda m: self.cluster.machine(m).clock)

    def _clone_task(self, task: Task, new_machine: int,
                    earliest: float, suffix: str) -> Task:
        """Clone a task for re-execution or speculative backup.

        Combine-type tasks must re-fetch their remote inputs before
        re-running (Appendix B): the input transfers become explicit sends
        charged against the network (modeled as reads from the sources).
        """
        refetch = [
            (src, nbytes)
            for src, nbytes in task.input_transfers
            if src != new_machine and self.cluster.machine(src).alive
        ]
        return Task(
            name=task.name + suffix,
            machine=new_machine,
            kind=task.kind,
            partition=task.partition,
            disk_read_bytes=task.disk_read_bytes,
            cpu_ops=task.cpu_ops,
            disk_write_bytes=task.disk_write_bytes,
            sends=list(task.sends) + refetch,
            receives=list(task.receives),
            input_transfers=list(task.input_transfers),
            earliest_start=earliest,
            disk_penalty=task.disk_penalty,
            attempt=task.attempt + 1,
        )

    # ------------------------------------------------------------------
    def _speculate(self, stage_execs: list[TaskExecution]) -> None:
        """Launch backup copies for stragglers; first finisher wins.

        A machine's *final* task of the stage is a speculation candidate
        when its duration exceeds ``speculation_factor`` × the stage's
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
        threshold = self.speculation_factor * median
        last: dict[int, TaskExecution] = {}
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

    def _speculate_one(self, e: TaskExecution,
                       stage_execs: list[TaskExecution],
                       threshold: float) -> None:
        task = e.task
        detect = e.start + threshold
        backup_machine = self._backup_machine(task, e.machine, detect)
        if backup_machine is None:
            return
        holder = self.cluster.machine(backup_machine)
        if holder.clock >= e.end:
            return  # no capacity frees up before the original finishes
        backup = self._clone_task(task, backup_machine, detect, "#spec")
        b_start = max(detect, holder.clock)
        duration = self._task_duration(backup, backup_machine)
        b_end = self.fault_plan.advance(backup_machine, b_start, duration)
        self._event(detect, "spec-launch", backup_machine,
                    task=backup.name, partition=task.partition)
        if b_end < e.end:
            # Backup wins; the original attempt is cancelled at b_end.
            self._charge(backup, backup_machine)
            holder.clock = max(holder.clock, b_end)
            holder.busy_time += b_end - b_start
            holder.tasks_executed += 1
            stage_execs.append(
                TaskExecution(backup, backup_machine, b_start, b_end, True,
                              planned_duration=b_end - b_start)
            )
            original = self.cluster.machine(e.machine)
            original.busy_time -= e.end - b_end
            original.clock = b_end
            idx = next(i for i, x in enumerate(stage_execs) if x is e)
            stage_execs[idx] = TaskExecution(
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
            self._event(b_end, "spec-win", backup_machine,
                        task=backup.name, partition=task.partition)
            self._event(b_end, "spec-cancel", e.machine, task=task.name,
                        partition=task.partition)
        else:
            # Original wins; the backup is cancelled when it finishes.
            # The wasted backup time occupies the holder but moves no
            # bytes (the copy never commits its output).
            holder.clock = max(holder.clock, e.end)
            holder.busy_time += e.end - b_start
            stage_execs.append(
                TaskExecution(backup, backup_machine, b_start, e.end,
                              False, planned_duration=b_end - b_start)
            )
            self._event(e.end, "spec-cancel", backup_machine,
                        task=backup.name, partition=task.partition)

    def _backup_machine(self, task: Task, exclude: int,
                        now: float) -> int | None:
        """Least-loaded alive replica holder to run a backup copy on."""
        plan = self.fault_plan
        candidates: list[int] = []
        if self.store is not None and task.partition is not None:
            candidates = [
                m for m in self.store.replicas(task.partition)
                if m != exclude and self.cluster.machine(m).alive
                and not plan.is_down(m, now)
            ]
        if not candidates:
            candidates = [
                m for m in self.cluster.alive_machines()
                if m != exclude and not plan.is_down(m, now)
            ]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda m: self.cluster.machine(m).clock)
