"""The propagation primitive: API, engine, cascaded multi-iteration."""

from repro.propagation.api import PropagationApp, message_nbytes
from repro.propagation.engine import (
    IterationReport,
    PropagationEngine,
    virtual_partition,
)
from repro.propagation.cascade import (
    CascadeInfo,
    cascade_io_fractions,
    compute_cascade_info,
)

__all__ = [
    "PropagationApp",
    "message_nbytes",
    "IterationReport",
    "PropagationEngine",
    "virtual_partition",
    "CascadeInfo",
    "cascade_io_fractions",
    "compute_cascade_info",
]
