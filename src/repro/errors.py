"""Exception hierarchy for the Surfer reproduction.

All library-raised exceptions derive from :class:`SurferError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class SurferError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(SurferError):
    """Malformed graph input or an operation invalid for a given graph."""


class GraphFormatError(GraphError):
    """A serialized graph (adjacency text/binary) could not be parsed."""


class PartitioningError(SurferError):
    """A partitioning request could not be satisfied."""


class TopologyError(SurferError):
    """Invalid cluster/topology specification."""


class PlacementError(SurferError):
    """Partition-to-machine placement is inconsistent or impossible."""


class DataLossError(PlacementError):
    """Every replica of some partition was lost; the job cannot recover.

    Subclasses :class:`PlacementError` so existing callers that guarded the
    replica store keep working; new code should catch this directly — the
    scheduler and the Surfer facade convert it into a clean failed-job
    result instead of crashing the simulation.
    """


class SchedulingError(SurferError):
    """The job scheduler was asked to do something impossible."""


class JobError(SurferError):
    """A job specification is invalid (bad UDFs, missing annotations...)."""


class ByteSizeError(JobError):
    """A sizing hook (``value_nbytes``, ``key_nbytes``,
    ``output_nbytes``) returned a byte size that is not a whole number:
    the cluster's traffic counters count whole bytes."""


class FaultInjectionError(SurferError):
    """Invalid fault-injection request (e.g. killing an unknown machine)."""


class BenchRunError(SurferError):
    """A benchmark run violated an execution invariant (a failed or
    unreconciled job behind a record, an invalid committed baseline)."""


class SanitizerError(SurferError):
    """SimSan (the opt-in runtime sanitizer) detected an invariant
    violation: a BSP write race, a counter-conservation drift at a
    superstep boundary, broken span push/pop discipline, or a writable
    shard view.  Raised at the superstep where the violation occurred,
    not at job end, so the failing schedule is still in hand."""
