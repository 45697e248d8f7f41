"""Cloud network topologies: T1 (flat), T2 (tree), T3 (heterogeneous).

The paper evaluates on a flat 32-machine pod (T1) and *simulates* uneven
bandwidth by slowing cross-pod transfers by a delay factor — by default 16x
for pairs meeting at a second-level switch and 32x at the top-level switch
(Section 6.1, Appendix F).  T3 models hardware heterogeneity: a random half
of the machines runs at half bandwidth, and a pair's bandwidth is the
minimum of its endpoints'.

A topology answers one question — ``bandwidth(i, j)`` in bytes/second — plus
structural queries (pod membership, lowest common switch level) used by the
machine-graph construction.
"""

from __future__ import annotations

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


class Topology:
    """Pairwise-bandwidth model over machines ``0 .. n-1``."""

    def __init__(self, num_machines: int, link_bps: float = GIGABIT_BPS):
        if num_machines <= 0:
            raise TopologyError("num_machines must be positive")
        if link_bps <= 0:
            raise TopologyError("link_bps must be positive")
        self.num_machines = num_machines
        self.link_bps = float(link_bps)

    # -- interface -----------------------------------------------------
    def bandwidth(self, src: int, dst: int) -> float:
        """Bytes/second between two machines (infinite when src == dst)."""
        raise NotImplementedError

    def pod_of(self, machine: int) -> int:
        """Pod index of ``machine`` (flat topologies are one pod)."""
        self._check(machine)
        return 0

    def flow_resources(
        self, src: int, dst: int
    ) -> list[tuple[tuple, float, int]]:
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

    @property
    def num_pods(self) -> int:
        return 1

    def describe(self) -> str:
        return f"{type(self).__name__}(n={self.num_machines})"

    def _check(self, machine: int) -> None:
        if not 0 <= machine < self.num_machines:
            raise TopologyError(
                f"machine {machine} out of range [0, {self.num_machines})"
            )


class FlatTopology(Topology):
    """T1: every machine pair shares the full link bandwidth."""

    def bandwidth(self, src: int, dst: int) -> float:
        self._check(src)
        self._check(dst)
        if src == dst:
            return float("inf")
        return self.link_bps

    def describe(self) -> str:
        return f"T1(n={self.num_machines})"


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

    def pod_of(self, machine: int) -> int:
        self._check(machine)
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

    def bandwidth(self, src: int, dst: int) -> float:
        self._check(src)
        self._check(dst)
        if src == dst:
            return float("inf")
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

    def flow_resources(
        self, src: int, dst: int
    ) -> list[tuple[tuple, float, int]]:
        level = self.common_switch_level(src, dst)
        if level == 0:
            return []
        capacity = self.uplink_capacity(level)
        return [
            (("uplink", self.pod_of(src), level), capacity, src),
            (("uplink", self.pod_of(dst), level), capacity, dst),
        ]

    def describe(self) -> str:
        return (f"T2(pods={self.num_pods},levels={self.num_levels},"
                f"n={self.num_machines})")


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
        self.slow_factor = float(slow_factor)

    def bandwidth(self, src: int, dst: int) -> float:
        self._check(src)
        self._check(dst)
        if src == dst:
            return float("inf")
        if self.is_slow[src] or self.is_slow[dst]:
            return self.link_bps / self.slow_factor
        return self.link_bps

    def flow_resources(
        self, src: int, dst: int
    ) -> list[tuple[tuple, float, int]]:
        """A slow machine's NIC is the shared bottleneck of its flows."""
        resources: list[tuple[tuple, float, int]] = []
        slow_bps = self.link_bps / self.slow_factor
        if self.is_slow[src]:
            resources.append((("slow-nic", src), slow_bps, src))
        if self.is_slow[dst]:
            resources.append((("slow-nic", dst), slow_bps, dst))
        return resources

    def describe(self) -> str:
        return f"T3(n={self.num_machines},slow={int(self.is_slow.sum())})"


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
