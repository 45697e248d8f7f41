"""The one-drain scheduler against the two-drain job manager it replaced.

``StageScheduler`` runs every queue — serial or pipelined, first dispatch
or retry — through one drain with one commit, picks retry and backup
machines with one least-loaded rule and closes a stage through one
``finally``.  This module keeps the job manager that preceded it as the
reference: its stage loop with separate barrier and abort closes, the
serial and the pipelined drain, the retry and the backup pickers, the
field-by-field task clone and the speculative-backup step, each as it
was (only the renamed ``note_recovery`` hook, the retry budget's
constant and the ``execution_span`` record differ).  Every execution, machine field, ``TrafficCounter``
field, counter (except wall seconds), instant and span, the replica map
and any abort must agree bit for bit.
"""

from __future__ import annotations

import copy
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.network import StageConstraints
from repro.cluster.spec import MachineSpec
from repro.cluster.storage import PartitionStore
from repro.cluster.topology import t1, t2
from repro.errors import (DataLossError, FaultInjectionError,
                          SchedulingError)
from repro.runtime.events import Span, wall_timer
from repro.runtime.scheduler import (MAX_RETRIES, StageScheduler,
                                     _stage_pairs, execution_span)
from repro.runtime.tasks import Task


# ----------------------------------------------------------------------
# The two-drain reference
# ----------------------------------------------------------------------
class ReferenceScheduler(StageScheduler):
    """The job manager with one drain per mode and per-path bookkeeping."""

    def run_stage(self, tasks):
        timer = wall_timer()
        start_time = max(
            (m.clock for m in self.cluster.machines), default=0.0
        )
        self._constraints = StageConstraints(self.cluster.topology,
                                             _stage_pairs(tasks))
        queues: dict[int, deque[Task]] = {}
        for task in tasks:
            queues.setdefault(task.machine, deque()).append(task)

        stage_execs: list[Span] = []
        failed: deque[tuple[Task, float]] = deque()
        failures = 0
        drain = (self._drain_queue_pipelined if self.pipelined
                 else self._drain_queue)

        try:
            for machine_id in sorted(queues):
                drain(machine_id, queues[machine_id], start_time,
                      stage_execs, failed)

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
                new_machine = self._reassign(task)
                retry = self._clone_task(task, new_machine, detect, "#retry")
                self.note_recovery(detect, "redispatch", new_machine,
                                   task=retry.name, partition=task.partition)
                drain(new_machine, deque([retry]), start_time,
                      stage_execs, failed)

            if self.speculation:
                self._speculate(stage_execs)
        except (DataLossError, SchedulingError):
            abort_end = max(
                (e.end for e in stage_execs), default=start_time
            )
            self._record_stage(tasks, stage_execs, start_time, abort_end,
                               failures, timer.elapsed())
            if self.sanitizer is not None:
                self.sanitizer.on_stage(stage_execs)
            raise

        end_time = max(
            (e.end for e in stage_execs), default=start_time
        )
        for m in self.cluster.machines:
            if m.alive:
                m.clock = max(m.clock, end_time)
        stage = self._record_stage(tasks, stage_execs, start_time,
                                   end_time, failures, timer.elapsed())
        if self.sanitizer is not None:
            self.sanitizer.on_stage(stage_execs)
        return stage

    def _drain_queue(self, machine_id, queue, stage_start, stage_execs,
                     failed):
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
                self._mark_down(machine_id, outage)
                machine.clock = max(machine.clock, outage.end)
                queue.appendleft(task)
                continue
            duration = self._task_duration(task, machine_id)
            end = plan.advance(machine_id, start, duration)
            if outage is not None and end > outage.start:
                machine.busy_time += outage.start - start
                machine.clock = outage.start
                stage_execs.append(
                    execution_span(task, machine_id, start,
                                   outage.start, False,
                                   planned_duration=end - start)
                )
                if outage.permanent:
                    self._mark_dead(machine_id, outage.start)
                    self._fail_over(machine_id, [task, *queue],
                                    outage.start, failed)
                    return
                self._mark_down(machine_id, outage)
                self._fail_over(machine_id, [task], outage.start, failed)
                continue
            self._charge(task, machine_id)
            machine.clock = end
            machine.busy_time += end - start
            machine.tasks_executed += 1
            stage_execs.append(
                execution_span(task, machine_id, start, end, True,
                               planned_duration=end - start)
            )

    def _drain_queue_pipelined(self, machine_id, queue, stage_start,
                               stage_execs, failed):
        machine = self.cluster.machine(machine_id)
        spec = machine.spec
        plan = self.fault_plan
        base = max(machine.clock, stage_start)
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
                machine.busy_time += max(0.0, outage.start - arrival)
                machine.clock = max(machine.clock, outage.start)
                stage_execs.append(
                    execution_span(task, machine_id, arrival,
                                   outage.start, False,
                                   planned_duration=write_end - arrival)
                )
                if outage.permanent:
                    self._mark_dead(machine_id, outage.start)
                    self._fail_over(machine_id, [task, *queue],
                                    outage.start, failed)
                    return
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
                execution_span(task, machine_id, arrival, write_end, True,
                               planned_duration=write_end - arrival)
            )

    def _reassign(self, task):
        dead = {m.machine_id for m in self.cluster.machines
                if not m.alive}
        if self.store is not None and task.partition is not None:
            holders = [m for m in self.store.replicas(task.partition)
                       if m not in dead]
            if holders:
                return min(holders,
                           key=lambda m: self.cluster.machine(m).clock)
        alive = self.cluster.alive_machines()
        if not alive:
            raise SchedulingError("no machines left alive to re-execute on")
        return min(alive, key=lambda m: self.cluster.machine(m).clock)

    def _clone_task(self, task, new_machine, earliest, suffix):
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

    def _speculate_one(self, e, stage_execs, threshold):
        task = e.task
        detect = e.start + threshold
        backup_machine = self._backup_machine(task, e.machine, detect)
        if backup_machine is None:
            return
        holder = self.cluster.machine(backup_machine)
        if holder.clock >= e.end:
            return
        backup = self._clone_task(task, backup_machine, detect, "#spec")
        b_start = max(detect, holder.clock)
        duration = self._task_duration(backup, backup_machine)
        b_end = self.fault_plan.advance(backup_machine, b_start, duration)
        self.note_recovery(detect, "spec-launch", backup_machine,
                           task=backup.name, partition=task.partition)
        if b_end < e.end:
            self._charge(backup, backup_machine)
            holder.clock = max(holder.clock, b_end)
            holder.busy_time += b_end - b_start
            holder.tasks_executed += 1
            stage_execs.append(
                execution_span(backup, backup_machine, b_start, b_end, True,
                               planned_duration=b_end - b_start)
            )
            original = self.cluster.machine(e.machine)
            original.busy_time -= e.end - b_end
            original.clock = b_end
            idx = next(i for i, x in enumerate(stage_execs) if x is e)
            stage_execs[idx] = execution_span(
                task, e.machine, e.start, b_end, False,
                planned_duration=e.planned_duration or e.duration,
            )
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
            holder.clock = max(holder.clock, e.end)
            holder.busy_time += e.end - b_start
            stage_execs.append(
                execution_span(backup, backup_machine, b_start, e.end,
                               False, planned_duration=b_end - b_start)
            )
            self.note_recovery(e.end, "spec-cancel", backup_machine,
                               task=backup.name, partition=task.partition)

    def _backup_machine(self, task, exclude, now):
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


# ----------------------------------------------------------------------
# Stages and fault plans to dispatch
# ----------------------------------------------------------------------
SPEC = MachineSpec(disk_read_bps=400.0, disk_write_bps=300.0,
                   cpu_ops_per_sec=100.0, nic_bps=250.0)
TOPOLOGIES = {
    "T1": lambda m: t1(m, link_bps=100.0),
    "T2": lambda m: t2(2, 1, m, link_bps=320.0),
}
NBYTES = st.sampled_from([0, 64, 1000, 333.3, 2500.0])


@st.composite
def stage_tasks(draw, num_machines, num_partitions, index):
    machine = st.integers(0, num_machines - 1)
    flows = st.lists(st.tuples(machine, NBYTES), max_size=3)
    # machine 0, where the faults gather, gets a queue
    machine = st.one_of(st.just(0), machine)
    partition = st.one_of(st.none(), st.integers(0, num_partitions - 1))
    return [Task(
        f"s{index}t{i}",
        machine=draw(machine),
        kind=draw(st.sampled_from(["transfer", "combine"])),
        partition=draw(partition),
        disk_read_bytes=draw(st.sampled_from([0.0, 400.0, 1333.3])),
        cpu_ops=draw(st.sampled_from([0.0, 50.0, 300.0, 1234.5])),
        disk_write_bytes=draw(st.sampled_from([0.0, 300.0])),
        sends=draw(flows),
        receives=draw(flows),
        fetches=draw(flows),
        input_transfers=draw(flows),
        earliest_start=draw(st.sampled_from([0.0, 0.0, 3.5, 12.0])),
        disk_penalty=draw(st.sampled_from([1.0, 1.0, 2.5])),
    ) for i in range(draw(st.integers(1, 8)))]


@st.composite
def fault_plans(draw, num_machines):
    plan = FaultPlan()
    # machine 0 draws half the events; one id past the cluster is inert
    victim = st.one_of(st.just(0), st.integers(0, num_machines))
    at = st.floats(0.0, 20.0, allow_nan=False)
    for __ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["kill", "transient", "transient",
                                     "kill in transient", "slow"]))
        machine, time = draw(victim), draw(at)
        try:
            if kind == "kill":
                plan.add_kill(machine, time)
            elif kind == "slow":
                plan.add_slowdown(machine, time, draw(st.floats(1.0, 30.0)),
                                  draw(st.sampled_from([2.0, 4.0])))
            else:
                downtime = draw(st.floats(0.5, 15.0))
                plan.add_transient(machine, time, downtime)
                if kind == "kill in transient":
                    plan.add_kill(machine, time + downtime
                                  * draw(st.sampled_from([0.5, 1.0])))
        except FaultInjectionError:
            pass  # a second kill or an overlapping window: skip it
    return plan


@st.composite
def scenarios(draw):
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    m = draw(st.integers(2, 6))
    if topology == "T2":
        m = 2 * draw(st.integers(1, 3))
    num_partitions = draw(st.integers(1, 6))
    store = None
    if draw(st.booleans()):
        store = PartitionStore(
            draw(st.lists(st.integers(0, m - 1), min_size=num_partitions,
                          max_size=num_partitions)),
            m,
            # one replica half the time: a kill then loses data and the
            # stage aborts
            replication=min(m, draw(st.sampled_from([1, 1, 2, 3]))),
            seed=draw(st.integers(0, 3)),
            partition_bytes=draw(st.sampled_from(
                [None, [500] * num_partitions])),
        )
    stages = [draw(stage_tasks(m, num_partitions, s))
              for s in range(draw(st.integers(1, 3)))]
    return dict(topology=topology, machines=m, store=store,
                plan=draw(fault_plans(m)),
                heartbeat=draw(st.sampled_from([0.5, 5.0])),
                pipelined=draw(st.booleans()),
                speculation=draw(st.booleans()),
                stages=stages)


def run(scheduler_cls, scenario):
    """Dispatch the stages on a fresh cluster; everything observable."""
    m = scenario["machines"]
    cluster = Cluster(TOPOLOGIES[scenario["topology"]](m), machine_spec=SPEC)
    store = scenario["store"]
    store = None if store is None else store.copy()
    scheduler = scheduler_cls(cluster, copy.deepcopy(scenario["plan"]),
                              store, heartbeat=scenario["heartbeat"],
                              pipelined=scenario["pipelined"],
                              speculation=scenario["speculation"])
    cluster.network.metrics = scheduler.events.metrics
    outcome = []
    for tasks in scenario["stages"]:
        try:
            result = scheduler.run_stage(copy.deepcopy(tasks))
        except (DataLossError, SchedulingError) as exc:
            outcome.append(("raised", type(exc).__name__, str(exc)))
            break
        outcome.append(result)
    machines = [vars(mach).copy() for mach in cluster.machines]
    for state in machines:
        state.pop("spec")
    return {
        "stages": outcome,
        "executions": scheduler.events.task_spans(),
        "machines": machines,
        "traffic": vars(cluster.network.traffic).copy(),
        "counters": {k: v for k, v in scheduler.events.metrics.counters.items()
                     if k != "scheduler.wall_seconds"},
        "instants": scheduler.events.instants,
        "spans": scheduler.events.spans,
        "replicas": None if store is None else (
            [store.replicas(p) for p in range(store.num_partitions)],
            frozenset(store._failed)),
    }


def assert_same(scenario):
    got = run(StageScheduler, scenario)
    reference = run(ReferenceScheduler, scenario)
    for field in reference:
        assert got[field] == reference[field], field
    return got


# ----------------------------------------------------------------------
class TestOneDrainEqualsReference:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(scenarios())
    def test_every_dispatch_bit_identical(self, scenario):
        assert_same(scenario)

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_kill_inside_a_transient_after_a_mid_flight_loss(self,
                                                            pipelined):
        """Machine 0 loses its in-flight task to the transient [10, 20)
        and is killed at 15.  The serial lane holds at the failure point,
        waits the window out and dies there (clock 15); the pipelined
        lanes restart cold past the window, so its clock stays at the
        failure point (10)."""
        plan = FaultPlan().add_transient(0, 10.0, 10.0).add_kill(0, 15.0)
        tasks = [Task("a", machine=0, partition=0, cpu_ops=1200.0),
                 Task("b", machine=0, partition=1, cpu_ops=100.0),
                 Task("c", machine=1, partition=2, cpu_ops=100.0)]
        got = assert_same(dict(
            topology="T1", machines=3,
            store=PartitionStore.from_replica_sets(
                [[0, 1], [0, 2], [1, 2]], 3, replication=2),
            plan=plan, heartbeat=0.5, pipelined=pipelined,
            speculation=False, stages=[tasks]))
        dead = got["machines"][0]
        assert not dead["alive"]
        assert dead["clock"] == (10.0 if pipelined else 15.0)

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_retry_waits_out_a_transient_on_the_idlest_holder(self,
                                                             pipelined):
        """The retry's least-loaded holder (machine 1) is inside a
        transient at detect time: a retry ignores that and waits the
        window out there, where a backup would have skipped it."""
        plan = FaultPlan().add_kill(0, 1.0).add_transient(1, 0.5, 9.5)
        tasks = [Task("a", machine=0, partition=0, cpu_ops=300.0),
                 Task("b", machine=2, partition=1, cpu_ops=500.0)]
        got = assert_same(dict(
            topology="T1", machines=3,
            store=PartitionStore.from_replica_sets(
                [[0, 1, 2], [2, 0, 1]], 3, replication=3),
            plan=plan, heartbeat=0.5, pipelined=pipelined,
            speculation=False, stages=[tasks]))
        [retry] = [e for e in got["executions"] if e.task.name == "a#retry"]
        assert retry.succeeded and retry.machine == 1
        assert retry.start == 10.0

    def test_clones_drop_remote_fetches(self):
        """A retried task reads its partition where it re-runs."""
        plan = FaultPlan().add_kill(0, 1.0)
        tasks = [Task("a", machine=0, partition=0, cpu_ops=300.0,
                      fetches=[(2, 1000)], input_transfers=[(2, 64)])]
        got = assert_same(dict(
            topology="T1", machines=3, store=None, plan=plan,
            heartbeat=0.5, pipelined=False, speculation=False,
            stages=[tasks]))
        [retry] = [e for e in got["executions"] if e.task.name == "a#retry"]
        assert retry.task.fetches == []
        assert retry.task.sends == [(2, 64)]

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_an_aborted_stage_does_not_barrier(self, pipelined):
        """The last replica of partition 1 dies with machine 1: the stage
        aborts, records what ran, and leaves every clock where its work
        ended."""
        plan = FaultPlan().add_kill(1, 2.0)
        tasks = [Task("a", machine=0, partition=0, cpu_ops=300.0),
                 Task("b", machine=1, partition=1, cpu_ops=800.0)]
        got = assert_same(dict(
            topology="T1", machines=3,
            store=PartitionStore.from_replica_sets(
                [[0], [1]], 3, replication=1),
            plan=plan, heartbeat=0.5, pipelined=pipelined,
            speculation=False, stages=[tasks, tasks]))
        assert got["stages"] == [("raised", "DataLossError",
                                  "partition 1 lost its last replica on "
                                  "machine 1")]
        assert [m["clock"] for m in got["machines"]] == [3.0, 2.0, 0.0]
        assert got["spans"][-1].kind == "stage"
