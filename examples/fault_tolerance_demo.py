#!/usr/bin/env python
"""Fault-tolerance demo: kill a slave machine mid-PageRank and recover.

Reproduces the paper's Figure 10 scenario interactively: a 3-iteration
network-ranking job runs on 16 machines; partway through, one machine
dies.  The job manager detects the failure by heartbeat loss, the GFS-like
store promotes surviving replicas, the lost tasks re-execute elsewhere
(Combine tasks re-fetch their inputs), and the job completes with the
exact same result at a modest overhead.

Run:  python examples/fault_tolerance_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import NetworkRankingPropagation
from repro.bench.workloads import SCALED_LINK_BPS, make_cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.topology import t1
from repro.core import Surfer
from repro.graph import composite_social_graph
from repro.runtime.trace import io_rate_timeline


def sparkline(values: np.ndarray, width: int = 60) -> str:
    """Tiny ASCII intensity plot of an I/O-rate timeline."""
    if values.size == 0:
        return ""
    blocks = " .:-=+*#%@"
    if values.size > width:
        chunk = int(np.ceil(values.size / width))
        values = np.array([values[i:i + chunk].mean()
                           for i in range(0, values.size, chunk)])
    top = values.max() or 1.0
    return "".join(blocks[int(v / top * (len(blocks) - 1))]
                   for v in values)


def main() -> None:
    graph = composite_social_graph(
        num_communities=16, community_size=256, k=8, seed=23
    )
    # Deployed once; every job works on its own copy of the replica map,
    # so the kill below leaves the deployment as it was.
    surfer = Surfer(graph, make_cluster(t1(16, SCALED_LINK_BPS)),
                    num_parts=32, seed=23)
    app = NetworkRankingPropagation()

    # Normal execution first, to know when to strike.
    normal = surfer.run_propagation(app, iterations=3)
    kill_time = 0.3 * normal.response_time
    victim = int(surfer.store.primary(0))

    # Now the same job, on the same deployment, with machine `victim`
    # dying mid-run.
    plan = FaultPlan().add_kill(victim, kill_time)
    faulty = surfer.run_propagation(app, iterations=3, fault_plan=plan)

    assert np.allclose(normal.result, faulty.result), "results must match"
    overhead = faulty.response_time / normal.response_time - 1
    spans = faulty.events.task_spans()
    lost = sum(1 for s in spans if not s.succeeded)
    retried = sum(1 for s in spans if s.name.endswith("#retry"))

    print(f"victim machine      : {victim} "
          f"(killed at t={kill_time:,.0f}s)")
    print(f"normal response     : {normal.response_time:,.0f}s")
    print(f"recovered response  : {faulty.response_time:,.0f}s "
          f"(+{overhead:.1%} overhead; paper reports ~10%)")
    print(f"tasks lost mid-run  : {lost}, re-executed: {retried}")
    print("results identical   : yes\n")

    bucket = normal.response_time / 60
    for label, job in (("normal ", normal), ("faulty ", faulty)):
        __, rates = io_rate_timeline(job.events.task_spans(), bucket)
        print(f"{label} disk-I/O rate |{sparkline(rates)}|")
    __, victim_rates = io_rate_timeline(spans, bucket, machine=victim)
    print(f"victim  disk-I/O rate |{sparkline(victim_rates)}|  "
          "(goes silent after the kill)")


if __name__ == "__main__":
    main()
