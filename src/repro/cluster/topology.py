"""Cloud network topologies: T1 (flat), T2 (tree), T3 (heterogeneous).

The paper evaluates on a flat 32-machine pod (T1) and *simulates* uneven
bandwidth by slowing cross-pod transfers by a delay factor — by default 16x
for pairs meeting at a second-level switch and 32x at the top-level switch
(Section 6.1, Appendix F).  T3 models hardware heterogeneity: a random half
of the machines runs at half bandwidth, and a pair's bandwidth is the
minimum of its endpoints'.

A topology answers one question — ``bandwidth(i, j)`` in bytes/second — plus
structural queries (pod membership, lowest common switch level, the shared
resources on a path) used by the machine-graph construction and the
scheduler.  Every answer is a fixed fact of a machine or machine pair, so
each topology tabulates them once (``pods``, ``bandwidths``,
``pair_resources``) and the public queries are range-checked lookups.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import TopologyError
from repro.cluster.spec import GIGABIT_BPS

__all__ = [
    "Topology",
    "FlatTopology",
    "TreeTopology",
    "HeterogeneousTopology",
    "t1",
    "t2",
    "t3",
]


#: a shared resource on a path: ``(resource_key, capacity_bps, user_machine)``
Resource = tuple[tuple, float, int]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Topology:
    """Pairwise-bandwidth model over machines ``0 .. n-1``.

    A subclass describes its network by ``_machine_pod(m)``,
    ``_pair_bandwidth(src, dst)`` and ``_pair_resources(src, dst)``
    (asked only for ``src != dst``).  Each table is built from them once,
    on first read: ``pods`` (pod per machine), ``bandwidths`` (M x M
    bytes/second, ``inf`` on the diagonal) and ``pair_resources`` (per
    ordered pair, empty on the diagonal).  ``pod_of``, ``bandwidth`` and
    ``flow_resources`` are range-checked lookups into them.

    Topologies are immutable after construction: the tables are never
    rebuilt, so no parameter may change once a topology exists (array
    parameters and the tables are read-only).
    """

    def __init__(self, num_machines: int, link_bps: float = GIGABIT_BPS):
        if num_machines <= 0:
            raise TopologyError("num_machines must be positive")
        if link_bps <= 0:
            raise TopologyError("link_bps must be positive")
        self.num_machines = num_machines
        self.link_bps = float(link_bps)

    # -- what a subclass describes ------------------------------------
    def _machine_pod(self, machine: int) -> int:
        return 0

    def _pair_bandwidth(self, src: int, dst: int) -> float:
        raise NotImplementedError

    def _pair_resources(self, src: int, dst: int) -> list[Resource]:
        """Shared congestible resources on the ``src -> dst`` path.

        Each entry is ``(resource_key, capacity_bps, user_machine)``: the
        resource's aggregate capacity and which endpoint's traffic transits
        it.  The scheduler counts distinct users per resource within a
        stage and grants each a fair share — so a pod uplink crossed by
        every machine degrades to the paper's worst-case all-to-all pair
        bandwidth, while a few concentrated bulk flows get proportionally
        more.  Flat topologies have no shared resources.
        """
        return []

    # -- the tables ---------------------------------------------------
    @cached_property
    def pods(self) -> np.ndarray:
        return _read_only(np.array(
            [self._machine_pod(m) for m in range(self.num_machines)],
            dtype=np.int64))

    @cached_property
    def bandwidths(self) -> np.ndarray:
        n = range(self.num_machines)
        return _read_only(np.array(
            [[self._pair_bandwidth(src, dst) if src != dst else np.inf
              for dst in n] for src in n], dtype=np.float64))

    @cached_property
    def pair_resources(self) -> tuple[tuple[tuple[Resource, ...], ...], ...]:
        n = range(self.num_machines)
        return tuple(tuple(tuple(self._pair_resources(src, dst))
                           if src != dst else () for dst in n) for src in n)

    # -- checked lookups ----------------------------------------------
    def pod_of(self, machine: int) -> int:
        """Pod index of ``machine`` (flat topologies are one pod)."""
        self._check(machine)
        return int(self.pods[machine])

    def bandwidth(self, src: int, dst: int) -> float:
        """Bytes/second between two machines (infinite when src == dst)."""
        self._check(src)
        self._check(dst)
        return float(self.bandwidths[src, dst])

    def flow_resources(self, src: int, dst: int) -> tuple[Resource, ...]:
        """The ``src -> dst`` path's shared resources (``_pair_resources``)."""
        self._check(src)
        self._check(dst)
        return self.pair_resources[src][dst]

    @property
    def num_pods(self) -> int:
        return 1

    def _check(self, machine: int) -> None:
        if not 0 <= machine < self.num_machines:
            raise TopologyError(
                f"machine {machine} out of range [0, {self.num_machines})"
            )


class FlatTopology(Topology):
    """T1: every machine pair shares the full link bandwidth."""

    def _pair_bandwidth(self, src: int, dst: int) -> float:
        return self.link_bps


class TreeTopology(Topology):
    """T2(#pod, #level): switch-based tree with uneven pair bandwidth.

    Machines are grouped into ``num_pods`` equal pods.  With
    ``num_levels == 1`` all pods hang off the top switch; pairs in different
    pods get ``link_bps / top_factor``.  With ``num_levels == 2`` pods are
    paired under mid-level switches; pairs meeting at a mid switch get
    ``link_bps / mid_factor`` and pairs meeting at the top switch get
    ``link_bps / top_factor``.  Defaults are the paper's 32x / 16x.
    """

    def __init__(
        self,
        num_machines: int,
        num_pods: int,
        num_levels: int = 1,
        link_bps: float = GIGABIT_BPS,
        top_factor: float = 32.0,
        mid_factor: float = 16.0,
    ):
        super().__init__(num_machines, link_bps)
        if num_pods <= 0 or num_machines % num_pods:
            raise TopologyError("num_pods must evenly divide num_machines")
        if num_levels not in (1, 2):
            raise TopologyError("num_levels must be 1 or 2")
        if num_levels == 2 and num_pods % 2:
            raise TopologyError("two-level trees need an even pod count")
        if top_factor < 1 or mid_factor < 1:
            raise TopologyError("delay factors must be >= 1")
        self._num_pods = num_pods
        self.num_levels = num_levels
        self.top_factor = float(top_factor)
        self.mid_factor = float(mid_factor)
        self.pod_size = num_machines // num_pods

    @property
    def num_pods(self) -> int:
        return self._num_pods

    def _machine_pod(self, machine: int) -> int:
        return machine // self.pod_size

    def group_of(self, machine: int) -> int:
        """Mid-level switch group (pairs of pods) for two-level trees."""
        pod = self.pod_of(machine)
        return pod // 2 if self.num_levels == 2 else 0

    def common_switch_level(self, src: int, dst: int) -> int:
        """0 = same pod, 1 = mid-level switch, 2 = top-level switch."""
        if self.pod_of(src) == self.pod_of(dst):
            return 0
        if self.num_levels == 2 and self.group_of(src) == self.group_of(dst):
            return 1
        return 2

    def _pair_bandwidth(self, src: int, dst: int) -> float:
        level = self.common_switch_level(src, dst)
        if level == 0:
            return self.link_bps
        if level == 1:
            return self.link_bps / self.mid_factor
        return self.link_bps / self.top_factor

    def uplink_capacity(self, level: int) -> float:
        """Aggregate capacity of one pod's uplink at a switch level.

        Calibrated so the worst case — all ``pod_size`` machines of the
        pod pushing through the uplink at once — gives each exactly the
        paper's degraded pair bandwidth ``link / factor``.
        """
        factor = self.mid_factor if level == 1 else self.top_factor
        return self.pod_size * self.link_bps / factor

    def _pair_resources(self, src: int, dst: int) -> list[Resource]:
        level = self.common_switch_level(src, dst)
        if level == 0:
            return []
        capacity = self.uplink_capacity(level)
        return [
            (("uplink", self.pod_of(src), level), capacity, src),
            (("uplink", self.pod_of(dst), level), capacity, dst),
        ]


class HeterogeneousTopology(Topology):
    """T3: a random half of the machines has ``1/slow_factor`` bandwidth.

    A pair's bandwidth is limited by the slower endpoint (Appendix F).
    """

    def __init__(
        self,
        num_machines: int,
        link_bps: float = GIGABIT_BPS,
        slow_fraction: float = 0.5,
        slow_factor: float = 2.0,
        seed: int = 0,
    ):
        super().__init__(num_machines, link_bps)
        if not 0 <= slow_fraction <= 1:
            raise TopologyError("slow_fraction must lie in [0, 1]")
        if slow_factor < 1:
            raise TopologyError("slow_factor must be >= 1")
        rng = np.random.default_rng(seed)
        num_slow = int(round(slow_fraction * num_machines))
        slow = rng.choice(num_machines, size=num_slow, replace=False)
        self.is_slow = np.zeros(num_machines, dtype=bool)
        self.is_slow[slow] = True
        self.is_slow.flags.writeable = False
        self.slow_factor = float(slow_factor)

    def _pair_bandwidth(self, src: int, dst: int) -> float:
        if self.is_slow[src] or self.is_slow[dst]:
            return self.link_bps / self.slow_factor
        return self.link_bps

    def _pair_resources(self, src: int, dst: int) -> list[Resource]:
        """A slow machine's NIC is the shared bottleneck of its flows."""
        resources: list[Resource] = []
        slow_bps = self.link_bps / self.slow_factor
        if self.is_slow[src]:
            resources.append((("slow-nic", src), slow_bps, src))
        if self.is_slow[dst]:
            resources.append((("slow-nic", dst), slow_bps, dst))
        return resources


def t1(num_machines: int = 32, link_bps: float = GIGABIT_BPS) -> FlatTopology:
    """The paper's flat 32-machine pod."""
    return FlatTopology(num_machines, link_bps)


def t2(
    num_pods: int,
    num_levels: int,
    num_machines: int = 32,
    link_bps: float = GIGABIT_BPS,
    top_factor: float = 32.0,
    mid_factor: float = 16.0,
) -> TreeTopology:
    """The paper's T2(#pod, #level) tree variants (Figure 5)."""
    return TreeTopology(num_machines, num_pods, num_levels, link_bps,
                        top_factor, mid_factor)


def t3(
    num_machines: int = 32,
    link_bps: float = GIGABIT_BPS,
    seed: int = 0,
) -> HeterogeneousTopology:
    """The paper's heterogeneous cluster: half the machines at half speed."""
    return HeterogeneousTopology(num_machines, link_bps, 0.5, 2.0, seed)
