"""The scheduler's table pricing against the per-flow reference.

``StageScheduler`` prices a stage from the topology's tables: it collects
the stage's distinct machine pairs once, resolves each pair's
``(bandwidth, bottleneck key)`` once (``StageConstraints``) and charges
the network counters once per task.  This module keeps the per-flow
pricing that preceded it — one ``flow_resources`` walk per flow for the
resource users, one fair-share resolution per flow, one accounted
transfer per flow — as the reference for docs/COST_MODEL.md §2, asking
the topology's own ``_pair_resources`` / ``_machine_pod`` so that no
table is involved.  Every duration, every machine counter, the
``TrafficCounter`` and every ``network.*`` counter must agree bit for bit.
"""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.spec import MachineSpec
from repro.cluster.topology import t1, t2, t3
from repro.errors import SchedulingError
from repro.runtime.scheduler import StageScheduler, _stage_pairs
from repro.runtime.tasks import Task


# ----------------------------------------------------------------------
# The per-flow reference
# ----------------------------------------------------------------------
def ref_collect_resource_users(topology, tasks) -> dict:
    """Who uses each shared network resource during the stage."""
    users: dict = {}
    for task in tasks:
        for dst, nbytes in task.sends:
            if nbytes > 0 and dst != task.machine:
                for key, __, user in topology._pair_resources(
                        task.machine, dst):
                    users.setdefault(key, set()).add(user)
        for src, nbytes in list(task.receives) + list(task.fetches):
            if nbytes > 0 and src != task.machine:
                for key, __, user in topology._pair_resources(
                        src, task.machine):
                    users.setdefault(key, set()).add(user)
    return users


def ref_flow_constraint(topology, src, dst, users) -> tuple[float, object]:
    """(bandwidth, bottleneck resource key) of one flow."""
    if src == dst:
        return float("inf"), None
    bw = topology.link_bps
    bottleneck: object = None
    for key, capacity, __ in topology._pair_resources(src, dst):
        sharers = max(1, len(users.get(key, ())))
        share = capacity / sharers
        if share < bw:
            bw = share
            bottleneck = key
    return bw, bottleneck


def ref_flows_time(topology, machine, flows, nic_bps, users,
                   outbound=True, max_streams=8) -> float:
    """One machine's occupancy for a set of concurrent flows."""
    groups: dict[object, list] = {}
    total = 0.0
    for peer, nbytes in flows:
        peer = int(peer)
        if peer == machine or nbytes <= 0:
            continue
        if outbound:
            bw, key = ref_flow_constraint(topology, machine, peer, users)
        else:
            bw, key = ref_flow_constraint(topology, peer, machine, users)
        entry = groups.setdefault(key, [0.0, 0, bw])
        entry[0] += nbytes
        entry[1] += 1
        entry[2] = min(entry[2], bw)
        total += nbytes
    if total <= 0:
        return 0.0
    time = total / nic_bps
    for key, (nbytes, count, bw) in groups.items():
        streams = min(count, max_streams) if key is None else 1
        capacity = min(nic_bps, bw * streams)
        time = max(time, nbytes / capacity)
    return time


def ref_transfer(network, src, dst, nbytes) -> None:
    """One accounted transfer, counted flow by flow."""
    if src == dst or nbytes <= 0:
        return
    topology = network.topology
    cross_pod = topology._machine_pod(src) != topology._machine_pod(dst)
    traffic = network.traffic
    traffic.total_bytes += int(nbytes)
    traffic.transfers += 1
    if cross_pod:
        traffic.cross_pod_bytes += int(nbytes)
    if network.metrics is not None:
        network.metrics.add("network.bytes_total", int(nbytes))
        network.metrics.add("network.transfers")
        if cross_pod:
            network.metrics.add("network.bytes_cross_pod", int(nbytes))


class ReferenceScheduler(StageScheduler):
    """The scheduler with per-flow pricing and per-flow charging."""

    def run_stage(self, tasks):
        self.users = ref_collect_resource_users(self.cluster.topology,
                                                tasks)
        return super().run_stage(tasks)

    def _network_times(self, task, machine_id, nic_bps):
        topology = self.cluster.topology
        return (
            ref_flows_time(topology, machine_id, task.sends, nic_bps,
                           self.users),
            ref_flows_time(topology, machine_id,
                           list(task.receives) + list(task.fetches),
                           nic_bps, self.users, outbound=False),
        )

    def _charge(self, task, machine_id):
        machine = self.cluster.machine(machine_id)
        machine.disk_read_bytes += int(task.disk_read_bytes)
        machine.disk_write_bytes += int(task.disk_write_bytes)
        machine.cpu_ops += task.cpu_ops
        network = self.cluster.network
        for dst, nbytes in task.sends:
            if dst != machine_id:
                ref_transfer(network, machine_id, dst, int(nbytes))
                machine.bytes_sent += int(nbytes)
                self.cluster.machine(dst).bytes_received += int(nbytes)
        for src, nbytes in task.fetches:
            if src != machine_id:
                ref_transfer(network, src, machine_id, int(nbytes))
                self.cluster.machine(src).bytes_sent += int(nbytes)
                machine.bytes_received += int(nbytes)


# ----------------------------------------------------------------------
# Stages to price
# ----------------------------------------------------------------------
TOPOLOGIES = {
    "T1": lambda m: t1(m, link_bps=100.0),
    "T2(4,1)": lambda m: t2(4, 1, m, link_bps=320.0),
    "T2(4,2)": lambda m: t2(4, 2, m, link_bps=320.0),
    "T3": lambda m: t3(m, link_bps=100.0, seed=m),
}
SHAPES = [(name, m) for name in TOPOLOGIES for m in (2, 8, 32)
          if not (name.startswith("T2") and m == 2)]
#: a NIC above, between and below the topologies' pair rates: below,
#: every flow group drains at the NIC and the total's rounding shows
NICS = [250.0, 40.0, 7.0]
#: zero, sub-byte, integral and fractional byte counts (the fractions
#: round differently in different summation orders)
NBYTES = st.sampled_from([0, 0.0, 0.5, 1, 64, 1000, 0.1, 333.3,
                          12345.678, 1e4 / 3, 2.0 ** 40 + 0.5])


@st.composite
def stage_tasks(draw, num_machines, index):
    machine = st.integers(0, num_machines - 1)
    flows = st.lists(st.tuples(machine, NBYTES), max_size=4)
    tasks = []
    for i in range(draw(st.integers(1, 8))):
        tasks.append(Task(
            f"s{index}t{i}",
            machine=draw(machine),
            partition=i,
            disk_read_bytes=draw(st.sampled_from([0.0, 40.0, 333.3])),
            cpu_ops=draw(st.sampled_from([0.0, 50.0, 1234.5])),
            disk_write_bytes=draw(st.sampled_from([0.0, 25.0])),
            sends=draw(flows),
            receives=draw(flows),
            fetches=draw(flows),
            input_transfers=draw(flows),
        ))
    return tasks


@st.composite
def scenarios(draw):
    name, m = draw(st.sampled_from(SHAPES))
    nic = draw(st.sampled_from(NICS))
    plan = FaultPlan()
    fault = draw(st.sampled_from(["none", "kill", "transient", "slow"]))
    victim = draw(st.integers(0, m - 1))
    at = draw(st.floats(0.0, 40.0, allow_nan=False))
    if fault == "kill":
        plan.add_kill(victim, at)
    elif fault == "transient":
        plan.add_transient(victim, at, draw(st.floats(0.5, 20.0)))
    elif fault == "slow":
        plan.add_slowdown(victim, at, 30.0, 4.0)
    # 2-3 stages per example: 100 examples price >= 200 stages
    stages = [draw(stage_tasks(m, s)) for s in range(draw(st.integers(2, 3)))]
    return (name, m, nic, plan, draw(st.booleans()), draw(st.booleans()),
            stages)


def run(scheduler_cls, name, m, nic, plan, pipelined, speculation, stages):
    """Run the stages on a fresh cluster; everything the pricing feeds."""
    spec = MachineSpec(disk_read_bps=400.0, disk_write_bps=300.0,
                       cpu_ops_per_sec=500.0, nic_bps=nic)
    cluster = Cluster(TOPOLOGIES[name](m), machine_spec=spec)
    scheduler = scheduler_cls(cluster, plan, pipelined=pipelined,
                              speculation=speculation)
    cluster.network.metrics = scheduler.events.metrics
    outcome = []
    for tasks in stages:
        before = len(scheduler.events.spans)
        try:
            scheduler.run_stage(copy.deepcopy(tasks))
        except SchedulingError as exc:
            outcome.append(("raised", str(exc)))
            break
        outcome.append([(e.task.name, e.machine, e.start, e.end,
                         e.succeeded, e.planned_duration)
                        for e in scheduler.events.spans[before:-1]])
    machines = [vars(mach).copy() for mach in cluster.machines]
    for state in machines:
        state.pop("spec")
    return {
        "stages": outcome,
        "machines": machines,
        "traffic": vars(cluster.network.traffic).copy(),
        "counters": {k: v for k, v in scheduler.events.metrics.counters.items()
                     if k != "scheduler.wall_seconds"},
        "instants": [(i.time, i.kind, i.machine, i.partition, i.nbytes)
                     for i in scheduler.events.instants],
        "spans": [(s.name, s.start, s.end, s.net_send_bytes,
                   s.net_recv_bytes) for s in scheduler.events.spans],
    }


def assert_same(scenario):
    table = run(StageScheduler, *scenario)
    reference = run(ReferenceScheduler, *scenario)
    for field in reference:
        assert table[field] == reference[field], field
    return table


class TestTablePathEqualsReference:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(scenarios())
    def test_every_cost_bit_identical(self, scenario):
        assert_same(scenario)

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_retry_refetch_after_a_mid_stage_kill(self, pipelined):
        """Machine 1 dies inside the stage; its tasks re-run elsewhere
        and refetch their inputs over pairs the stage never collected."""
        tasks = [Task(f"t{i}", machine=i % 4, partition=i, cpu_ops=500.0,
                      sends=[((i + 1) % 4, 200)],
                      input_transfers=[(5, 300.0), (6, 0), (1, 50)])
                 for i in range(8)]
        collected = _stage_pairs(tasks)
        plan = FaultPlan().add_kill(1, 1.5)
        table = assert_same(("T2(4,2)", 8, 250.0, plan, pipelined, False,
                             [tasks]))
        retried = [e for e in table["stages"][0] if "#retry" in e[0]]
        assert retried
        new_machine = retried[0][1]
        # the refetch is modelled as a send from the new machine
        assert (new_machine, 5) not in collected
        assert table["counters"]["network.bytes_cross_pod"] > 0

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_reused_table_keeps_a_pair_added_mid_stage(self, pipelined):
        """Two stages with one pair set price off one constraint table.
        The first stage's retry refetch adds a pair to it on lookup; the
        second stage sees that entry and must still price every flow as
        a fresh table (and the per-flow reference) would."""
        tasks = [Task(f"t{i}", machine=i % 4, partition=i, cpu_ops=500.0,
                      sends=[((i + 1) % 4, 200)],
                      input_transfers=[(5, 300.0), (6, 0), (1, 50)])
                 for i in range(8)]
        collected = _stage_pairs(tasks)
        plan = FaultPlan().add_kill(1, 1.5)
        scenario = ("T2(4,2)", 8, 250.0, plan, pipelined, False,
                    [tasks, tasks])
        table = assert_same(scenario)
        assert all(any("#retry" in e[0] for e in stage)
                   for stage in table["stages"])

        cluster = Cluster(TOPOLOGIES["T2(4,2)"](8), machine_spec=MachineSpec(
            disk_read_bps=400.0, disk_write_bps=300.0,
            cpu_ops_per_sec=500.0, nic_bps=250.0))
        scheduler = StageScheduler(cluster, plan, pipelined=pipelined)
        scheduler.run_stage(copy.deepcopy(tasks))
        (reused,) = scheduler._constraint_tables.values()
        added = set(reused) - collected
        assert added  # the refetch's pairs, resolved on lookup
        scheduler.run_stage(copy.deepcopy(tasks))
        assert scheduler._constraint_tables == {collected: reused}
        assert scheduler._constraints is reused

    def test_speculation_lands_outside_the_collected_pairs(self):
        """A slowed straggler gets a backup whose refetch crosses pods on
        a pair no task of the stage used."""
        tasks = [Task(f"t{i}", machine=i, partition=i, cpu_ops=1000.0,
                      sends=[(i ^ 1, 100)],
                      input_transfers=[(7, 400.0)]) for i in range(4)]
        collected = _stage_pairs(tasks)
        plan = FaultPlan().add_slowdown(0, 0.0, 1000.0, 50.0)
        table = assert_same(("T2(4,1)", 8, 250.0, plan, False, True, [tasks]))
        backups = [e for e in table["stages"][0] if "#spec" in e[0]]
        assert backups
        assert (backups[0][1], 7) not in collected
        assert any(kind == "spec-win" for __, kind, *___
                   in table["instants"])

    def test_zero_byte_and_self_flows_cost_nothing(self):
        tasks = [Task("t", machine=3, sends=[(3, 500), (5, 0), (6, 0.0)],
                      receives=[(3, 100), (4, 0)], fetches=[(3, 7)])]
        assert not _stage_pairs(tasks)
        table = assert_same(("T3", 8, 250.0, FaultPlan(), False, False, [tasks]))
        assert table["traffic"]["transfers"] == 0
        assert table["stages"][0][0][3] == 0.0


def test_reference_matches_documented_worst_case():
    """COST_MODEL.md §2: full uplink contention gives link / 32."""
    topo = t2(2, 1, 32, link_bps=320.0)
    users = {("uplink", 0, 2): set(range(16)),
             ("uplink", 1, 2): set(range(16, 32))}
    assert ref_flow_constraint(topo, 0, 16, users)[0] == pytest.approx(
        10.0)
    assert math.isinf(ref_flow_constraint(topo, 3, 3, users)[0])
