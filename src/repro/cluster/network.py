"""Network cost model and traffic accounting.

Transfers between distinct machines take ``bytes / bandwidth(src, dst)``
simulated seconds and are counted as network traffic; transfers between
partitions co-located on one machine are free and not counted — this is
exactly the locality the bandwidth-aware placement exploits and the paper's
network-I/O metric measures (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import Topology

__all__ = ["TrafficCounter", "NetworkModel"]


@dataclass
class TrafficCounter:
    """Accumulated traffic of one simulation run.

    ``background_bytes`` counts transfers flagged as background repair
    traffic (re-replication after a machine failure); they are included in
    ``total_bytes`` as well — the copies are real flows on the wire.
    """

    total_bytes: int = 0
    cross_pod_bytes: int = 0
    background_bytes: int = 0
    transfers: int = 0
    per_pair: dict[tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int,
               cross_pod: bool, background: bool = False) -> None:
        self.total_bytes += nbytes
        self.transfers += 1
        if cross_pod:
            self.cross_pod_bytes += nbytes
        if background:
            self.background_bytes += nbytes
        key = (src, dst)
        self.per_pair[key] = self.per_pair.get(key, 0) + nbytes

    def reset(self) -> None:
        self.total_bytes = 0
        self.cross_pod_bytes = 0
        self.background_bytes = 0
        self.transfers = 0
        self.per_pair.clear()


class NetworkModel:
    """Charges transfer times against a :class:`Topology` and keeps counters.

    ``metrics`` (optional) is the current job's
    :class:`~repro.runtime.events.MetricsRegistry`; when bound (the
    Surfer binds one per run), every accounted transfer also increments
    the named ``network.*`` counters so the observability layer sees the
    same totals as :class:`TrafficCounter`.
    """

    def __init__(self, topology: Topology, metrics=None):
        self.topology = topology
        self.traffic = TrafficCounter()
        self.metrics = metrics

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Simulated seconds to move ``nbytes`` from ``src`` to ``dst``.

        Local moves (``src == dst``) are free.  Does not record traffic;
        use :meth:`transfer` for accounted sends.
        """
        if src == dst or nbytes <= 0:
            return 0.0
        return nbytes / self.topology.bandwidth(src, dst)

    def transfer(self, src: int, dst: int, nbytes: int,
                 background: bool = False) -> float:
        """Record an accounted transfer and return its simulated time.

        ``background=True`` marks repair traffic (replica re-creation):
        counted as real network flow but tracked separately.
        """
        if src == dst or nbytes <= 0:
            return 0.0
        cross_pod = self.topology.pod_of(src) != self.topology.pod_of(dst)
        self.traffic.record(src, dst, int(nbytes), cross_pod, background)
        if self.metrics is not None:
            self.metrics.add("network.bytes_total", int(nbytes))
            self.metrics.add("network.transfers")
            if cross_pod:
                self.metrics.add("network.bytes_cross_pod", int(nbytes))
            if background:
                self.metrics.add("network.bytes_background", int(nbytes))
        return nbytes / self.topology.bandwidth(src, dst)

    def flow_constraint(
        self, src: int, dst: int, users: dict | None = None
    ) -> tuple[float, object]:
        """(bandwidth, bottleneck resource key) of one flow.

        The key identifies which shared resource limits the flow (None
        when only the full-rate link does); flows limited by the *same*
        resource must share its capacity, while flows limited by distinct
        resources can proceed in parallel.
        """
        if src == dst:
            return float("inf"), None
        if users is None:
            bw = self.topology.bandwidth(src, dst)
            key = None
            if bw < self.topology.link_bps:
                resources = self.topology.flow_resources(src, dst)
                key = resources[0][0] if resources else ("pair", src, dst)
            return bw, key
        bw = self.topology.link_bps
        bottleneck: object = None
        for key, capacity, __ in self.topology.flow_resources(src, dst):
            sharers = max(1, len(users.get(key, ())))
            share = capacity / sharers
            if share < bw:
                bw = share
                bottleneck = key
        return bw, bottleneck

    def flows_time(
        self,
        machine: int,
        flows,
        nic_bps: float,
        outbound: bool = True,
        max_streams: int = 8,
        users: dict | None = None,
    ) -> float:
        """Time for one machine to move a set of concurrent flows.

        ``flows`` is ``[(peer, nbytes), ...]``.  Flows are grouped by the
        shared resource that bottlenecks them: flows through the *same*
        congested resource (one pod uplink, one slow NIC) drain at that
        resource's fair-share rate with no multiplexing gain, while flows
        limited by distinct resources — or by nothing but the full-rate
        link — proceed in parallel (up to ``max_streams`` for full-rate
        flows), all capped by this machine's NIC.  This is the sender- and
        receiver-occupancy model used for every task.
        """
        groups: dict[object, list[float]] = {}
        total = 0.0
        for peer, nbytes in flows:
            peer = int(peer)
            if peer == machine or nbytes <= 0:
                continue
            if outbound:
                bw, key = self.flow_constraint(machine, peer, users)
            else:
                bw, key = self.flow_constraint(peer, machine, users)
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

    def all_to_all_time(self, machines, bytes_per_pair: float) -> float:
        """Worst-case all-to-all exchange time among ``machines``.

        Every ordered pair ships ``bytes_per_pair``; each sender serializes
        its sends, and the exchange completes when the slowest sender does —
        the worst-case model of Appendix F.
        """
        machines = [int(m) for m in machines]
        worst = 0.0
        for src in machines:
            sender_time = sum(
                self.transfer_time(src, dst, bytes_per_pair)
                for dst in machines if dst != src
            )
            worst = max(worst, sender_time)
        return worst

    def cross_exchange_time(self, group_a, group_b,
                            total_bytes: float) -> float:
        """Time to ship ``total_bytes`` from ``group_a`` to ``group_b``.

        The volume is spread uniformly over the ordered cross pairs; each
        sender serializes its sends and the exchange finishes with the
        slowest sender (the same worst-case model as all-to-all).
        """
        group_a = [int(m) for m in group_a]
        group_b = [int(m) for m in group_b]
        pairs = [(a, b) for a in group_a for b in group_b if a != b]
        if not pairs or total_bytes <= 0:
            return 0.0
        per_pair = total_bytes / len(pairs)
        worst = 0.0
        for a in group_a:
            sender_time = sum(
                self.transfer_time(a, b, per_pair)
                for b in group_b if b != a
            )
            worst = max(worst, sender_time)
        return worst

    def reset(self) -> None:
        self.traffic.reset()
