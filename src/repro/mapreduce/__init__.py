"""Home-grown MapReduce primitive (the paper's comparison engine)."""

from repro.mapreduce.api import MapReduceApp, kv_nbytes
from repro.mapreduce.engine import MapReduceEngine, RoundReport

__all__ = [
    "MapReduceApp",
    "kv_nbytes",
    "MapReduceEngine",
    "RoundReport",
]
