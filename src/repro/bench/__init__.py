"""Benchmark workloads and the experiment registry.

The paper's tables, figures and ablations — and every job whose
simulated cost the committed ``benchmarks/results/`` tables hold — are
enumerated in exactly one place, :data:`EXPERIMENTS`; their run
functions live in :mod:`repro.bench.experiments`.
"""

from repro.bench.harness import ExperimentTable, format_value
from repro.bench.loc import PAPER_TABLE4, count_udf_lines, method_body_lines
from repro.bench.workloads import (
    PAPER_GRAPH_BYTES,
    Workload,
    scaled_graph,
    standard_graph,
    standard_workload,
    topology_suite,
)
from repro.bench.experiments import EXPERIMENTS, Experiment, make_app

__all__ = [
    "ExperimentTable",
    "format_value",
    "PAPER_TABLE4",
    "count_udf_lines",
    "method_body_lines",
    "PAPER_GRAPH_BYTES",
    "Workload",
    "scaled_graph",
    "standard_graph",
    "standard_workload",
    "topology_suite",
    "EXPERIMENTS",
    "Experiment",
    "make_app",
]
