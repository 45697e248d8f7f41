"""Replicated partition store (the GFS-like layer).

Each graph partition has one *primary* replica on the machine chosen by the
placement algorithm plus ``replication - 1`` secondaries on distinct other
machines, following GFS's scheme (Section 3).  On a machine failure the
store promotes a surviving replica, which is what lets the job manager
re-execute a task elsewhere (Appendix B, Figure 10), and — like GFS — the
lost replicas are *re-created* on surviving machines so a later failure
does not hit a degraded replica set (:meth:`re_replicate`).
"""

from __future__ import annotations

import copy
from typing import Iterable, Sequence

import numpy as np

from repro.errors import DataLossError, PlacementError

__all__ = ["PartitionStore"]


class PartitionStore:
    """Tracks replica locations of every partition on a cluster."""

    def __init__(
        self,
        placement,
        num_machines: int,
        replication: int = 3,
        seed: int = 0,
        partition_bytes=None,
        topology=None,
    ):
        """``placement[p]`` is partition ``p``'s primary machine.

        ``partition_bytes`` (optional, per partition) sizes the copy
        traffic of replica re-creation; without it re-replication still
        restores replica counts but charges no bytes.  ``topology``
        (optional) makes replica repair placement-aware: new holders are
        chosen by copy bandwidth from the primary, not just by load.
        """
        placement = np.asarray(placement, dtype=np.int64)
        rng = np.random.default_rng(seed)

        def replica_set(primary: int) -> list[int]:
            others = [m for m in range(num_machines) if m != primary]
            extra = rng.choice(
                others, size=replication - 1, replace=False
            ).tolist() if replication > 1 else []
            return [primary, *extra]

        # lazily: the replication check runs before the first draw
        self._build(map(replica_set, placement.tolist()), num_machines,
                    replication, partition_bytes, (), topology)

    @classmethod
    def from_replica_sets(
        cls,
        replica_sets: Sequence[Sequence[int]],
        num_machines: int,
        replication: int,
        partition_bytes=None,
        failed: Iterable[int] = (),
        topology=None,
    ) -> "PartitionStore":
        """A store over explicitly given replica sets (primary first).

        Used by the job-level restart path: after a data loss the driver
        rebuilds the metadata from the replicas that survived on alive
        machines (plus any partitions freshly restored from the durable
        tier).  ``failed`` machines are excluded from future repair.
        """
        store = cls.__new__(cls)
        store._build(replica_sets, num_machines, replication,
                     partition_bytes, failed, topology)
        return store

    def _build(self, replica_sets: Iterable[Sequence[int]],
               num_machines: int, replication: int, partition_bytes,
               failed: Iterable[int], topology) -> None:
        """Validate and install the replica sets — the one path both
        constructors share."""
        if replication < 1:
            raise PlacementError("replication must be >= 1")
        if replication > num_machines:
            raise PlacementError(
                "replication cannot exceed the number of machines"
            )
        self.num_machines = num_machines
        self.replication = replication
        self.topology = topology
        self._failed = {int(m) for m in failed}
        self._replicas: list[list[int]] = []
        for p, reps in enumerate(replica_sets):
            holders = [int(m) for m in reps]
            if not holders:
                raise PlacementError(f"partition {p} has no replica")
            for m in holders:
                if not 0 <= m < num_machines:
                    raise PlacementError(f"unknown machine {m}")
                if m in self._failed:
                    raise PlacementError(
                        f"replica of partition {p} on failed machine {m}"
                    )
            if len(set(holders)) != len(holders):
                raise PlacementError(
                    f"duplicate replica holders for partition {p}"
                )
            self._replicas.append(holders)
        if partition_bytes is None:
            partition_bytes = np.zeros(len(self._replicas), dtype=np.int64)
        self.partition_bytes = np.asarray(partition_bytes, dtype=np.int64)
        if self.partition_bytes.size != len(self._replicas):
            raise PlacementError(
                "partition_bytes length must match the partitions"
            )

    def copy(self) -> "PartitionStore":
        """An independent replica map over the same partitions.

        What a job works on: failures and repairs it applies stay out of
        the store it was copied from (sizes and topology are shared —
        nothing writes them).
        """
        store = copy.copy(self)
        store._replicas = [list(reps) for reps in self._replicas]
        store._failed = set(self._failed)
        return store

    @property
    def num_partitions(self) -> int:
        return len(self._replicas)

    def primary(self, partition: int) -> int:
        """Current primary machine of ``partition``."""
        return self._replicas[partition][0]

    def replicas(self, partition: int) -> list[int]:
        """All machines holding ``partition`` (primary first)."""
        return list(self._replicas[partition])

    def partition_nbytes(self, partition: int) -> int:
        """Disk footprint of one partition (0 when sizes were not given)."""
        return int(self.partition_bytes[partition])

    def placement_array(self) -> np.ndarray:
        """Primary machine per partition as an array."""
        return np.array([r[0] for r in self._replicas], dtype=np.int64)

    # ------------------------------------------------------------------
    def handle_failure(self, machine: int) -> list[int]:
        """Drop ``machine`` from every replica set; promote survivors.

        Idempotent: a repeated call for the same machine is a no-op and
        returns ``[]``.  Returns the partitions whose primary moved.
        Raises :class:`DataLossError` if any partition would lose its
        last replica — the job cannot produce a correct result then.
        """
        if machine in self._failed:
            return []
        self._failed.add(machine)
        moved: list[int] = []
        for p, reps in enumerate(self._replicas):
            if machine not in reps:
                continue
            survivors = [m for m in reps if m != machine]
            if not survivors:
                raise DataLossError(
                    f"partition {p} lost its last replica on machine {machine}"
                )
            if reps[0] == machine:
                moved.append(p)
            self._replicas[p] = survivors
        return moved

    def under_replicated(self) -> list[int]:
        """Partitions currently holding fewer than ``replication`` copies."""
        return [p for p, r in enumerate(self._replicas)
                if len(r) < self.replication]

    def re_replicate(self, alive) -> list[tuple[int, int, int]]:
        """Restore every under-replicated partition on surviving machines.

        ``alive`` is the set of machines able to receive copies.  New
        replica holders are chosen deterministically: the least-loaded
        alive machine, with ties broken *placement-aware* when the store
        knows the topology — the candidate with the highest bandwidth to
        the copy source (the partition's primary) wins, which keeps
        repair traffic off the oversubscribed pod uplinks just like the
        bandwidth-aware placement keeps job traffic off them.  Remaining
        ties go to the lowest machine id (the pre-topology rule, and the
        fallback when no topology was given).  Each copy is sourced from
        the partition's current primary.  Returns the copies made as
        ``(partition, src, dst)`` so the caller can charge the traffic;
        the store metadata is updated in place.
        """
        alive = sorted(set(alive) - self._failed)
        load = {m: 0 for m in alive}
        for reps in self._replicas:
            for m in reps:
                if m in load:
                    load[m] += 1
        copies: list[tuple[int, int, int]] = []
        for p in self.under_replicated():
            reps = self._replicas[p]
            while len(reps) < self.replication:
                candidates = [m for m in alive if m not in reps]
                if not candidates:
                    break  # fewer survivors than the replication target
                dst = self._repair_target(candidates, load, reps[0])
                reps.append(dst)
                load[dst] += 1
                copies.append((p, reps[0], dst))
        return copies

    def _repair_target(self, candidates: list[int], load: dict[int, int],
                       primary: int) -> int:
        """Deterministic destination for one repair copy."""
        if self.topology is None:
            return min(candidates, key=lambda m: (load[m], m))
        return min(
            candidates,
            key=lambda m: (load[m], -self.topology.bandwidth(primary, m), m),
        )
