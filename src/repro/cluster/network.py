"""Network cost model and traffic accounting.

Transfers between distinct machines take ``bytes / bandwidth(src, dst)``
simulated seconds and are counted as network traffic; transfers between
partitions co-located on one machine are free and not counted — this is
exactly the locality the bandwidth-aware placement exploits and the paper's
network-I/O metric measures (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import Topology

__all__ = ["TrafficCounter", "NetworkModel", "StageConstraints"]


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

    def reset(self) -> None:
        self.total_bytes = 0
        self.cross_pod_bytes = 0
        self.background_bytes = 0
        self.transfers = 0


class StageConstraints(dict):
    """``(src, dst) -> (bandwidth, bottleneck key)`` of one stage's flows.

    The users of each shared resource are the distinct ``user_machine``
    entries of the ``pairs`` that carry bytes in the stage.  A flow's
    bandwidth is its link rate or, if lower, the smallest fair share
    ``capacity / #users`` of a resource on its path; the key names that
    resource (None when only the full-rate link limits the flow).  Flows
    limited by the *same* resource must share its capacity, while flows
    limited by distinct resources can proceed in parallel.

    Every given pair is resolved up front.  A pair first seen mid-stage
    (a retry's refetch, a speculative backup) resolves on its first
    lookup, against the same users.
    """

    def __init__(self, topology: Topology, pairs) -> None:
        super().__init__()
        self.topology = topology
        paths = [(pair, topology.flow_resources(*pair)) for pair in pairs]
        users: dict = {}
        for __, resources in paths:
            for key, __, user in resources:
                users.setdefault(key, set()).add(user)
        self.sharers = {key: len(machines) for key, machines in users.items()}
        for pair, resources in paths:
            self[pair] = self._resolve(resources)

    def __missing__(self, pair: tuple[int, int]) -> tuple[float, object]:
        self[pair] = constraint = self._resolve(
            self.topology.flow_resources(*pair))
        return constraint

    def _resolve(self, resources) -> tuple[float, object]:
        bw = self.topology.link_bps
        bottleneck: object = None
        for key, capacity, __ in resources:
            share = capacity / max(1, self.sharers.get(key, 0))
            if share < bw:
                bw = share
                bottleneck = key
        return bw, bottleneck


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
        bw = self.topology.bandwidth(src, dst)
        pods = self.topology.pods
        cross_pod = int(nbytes) if pods[src] != pods[dst] else 0
        self._record(int(nbytes), 1, cross_pod, background)
        return nbytes / bw

    def account_flows(self, machine: int, sends, fetches) -> None:
        """Count one task's flows: ``sends`` leave ``machine`` and
        ``fetches`` arrive at it, both ``[(peer, nbytes), ...]``.

        As with :meth:`transfer` of ``int(nbytes)``, a flow counts as one
        transfer when it moves a whole byte between distinct machines.
        Integer bytes add up exactly in any order, so the counters take
        one update per call.  The peers must be checked machine ids (the
        scheduler prices every flow before it charges it).
        """
        pods = self.topology.pods
        pod = pods[machine]
        nbytes = cross_pod = flows = 0
        for peer, size in (*sends, *fetches):
            n = int(size)
            if n > 0 and peer != machine:
                nbytes += n
                flows += 1
                if pods[peer] != pod:
                    cross_pod += n
        if flows:
            self._record(nbytes, flows, cross_pod)

    def _record(self, nbytes: int, transfers: int, cross_pod_bytes: int,
                background: bool = False) -> None:
        traffic = self.traffic
        traffic.total_bytes += nbytes
        traffic.transfers += transfers
        traffic.cross_pod_bytes += cross_pod_bytes
        if background:
            traffic.background_bytes += nbytes
        if self.metrics is not None:
            self.metrics.add("network.bytes_total", nbytes)
            self.metrics.add("network.transfers", transfers)
            if cross_pod_bytes:
                self.metrics.add("network.bytes_cross_pod", cross_pod_bytes)
            if background:
                self.metrics.add("network.bytes_background", nbytes)

    def flows_time(
        self,
        machine: int,
        flows,
        nic_bps: float,
        constraints: StageConstraints,
        outbound: bool = True,
    ) -> float:
        """Time for one machine to move a set of concurrent flows.

        ``flows`` is ``[(peer, nbytes), ...]``, priced by the stage's
        ``constraints``.  Flows are grouped by the shared resource that
        bottlenecks them: flows through the *same* congested resource (one
        pod uplink, one slow NIC) drain at that resource's fair-share rate
        with no multiplexing gain, while flows limited by distinct
        resources — or by nothing but the full-rate link — proceed in
        parallel (up to 8 streams for full-rate flows), all capped by
        this machine's NIC.  This is the sender- and receiver-occupancy
        model used for every task.  Bytes add up in flow order, per group
        and in total, so the result is bit-stable.
        """
        groups: dict[object, list] = {}
        total = 0.0
        for peer, nbytes in flows:
            if nbytes > 0 and peer != machine:
                bw, key = constraints[
                    (machine, peer) if outbound else (peer, machine)]
                entry = groups.get(key)
                if entry is None:
                    groups[key] = [0.0 + nbytes, 1, bw]
                else:
                    entry[0] += nbytes
                    entry[1] += 1
                    if bw < entry[2]:
                        entry[2] = bw
                total += nbytes
        if total <= 0:
            return 0.0
        time = total / nic_bps
        for key, (nbytes, count, bw) in groups.items():
            if key is None and count > 1:
                bw *= count if count < 8 else 8
            group_time = nbytes / (bw if bw < nic_bps else nic_bps)
            if group_time > time:
                time = group_time
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
