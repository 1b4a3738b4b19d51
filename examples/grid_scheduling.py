#!/usr/bin/env python
"""Closing the loop: prediction-driven job scheduling on a grid.

The paper's opening motivation — "for a middleware to perform resource
allocation, prediction models are needed" — made concrete: a batch of
mixed data-mining jobs, all submitted at time zero, is placed on a
capacity-limited two-site grid by the broker, once with the prediction
framework choosing each job's (replica, configuration) pair
(``min-completion``) and once by a prediction-free rotation over sites
and allocations (``round-robin``).  Every placement is executed for
real on the simulated middleware.

Run:  python examples/grid_scheduling.py
"""

from repro.broker import BrokerJob, GridBroker
from repro.simgrid.topology import GridTopology, SiteKind
from repro.workloads.clusters import pentium_myrinet_cluster

SMALL_SIZE = {"knn": "350 MB", "vortex": "710 MB", "defect": "130 MB",
              "kmeans": "350 MB"}
JOB_MIX = ["knn", "vortex", "defect", "kmeans", "knn", "defect", "vortex"]


def main() -> None:
    cluster = pentium_myrinet_cluster(num_nodes=16)
    topo = GridTopology()
    topo.add_site("repo", SiteKind.REPOSITORY, cluster)
    topo.add_site("hpc-a", SiteKind.COMPUTE, cluster)
    topo.add_site("hpc-b", SiteKind.COMPUTE,
                  pentium_myrinet_cluster(num_nodes=8))
    topo.connect("repo", "hpc-a", bw=2.0e6)
    topo.connect("repo", "hpc-b", bw=5.0e5)  # thin link to the second site

    # Each (workload, size) is profiled once on 1-1, the framework's
    # only input, the first time a job needs it.
    broker = GridBroker(topo, [(1, 2), (2, 4), (4, 8)])
    jobs = [
        BrokerJob(job_id=f"job{i}-{name}", workload=name,
                  size=SMALL_SIZE[name])
        for i, name in enumerate(JOB_MIX)
    ]

    runs = {policy: broker.run(jobs, policy)
            for policy in ("min-completion", "round-robin")}

    print("scheduling with the prediction framework (min-completion):")
    for p in runs["min-completion"].placements:
        print(f"  {p.label:46s} [{p.start:6.3f}s .. {p.end:6.3f}s] "
              f"predicted {p.predicted_total:.3f}s")

    print("\npolicy comparison:")
    print(f"  {'policy':>15} {'makespan':>9} {'mean turnaround':>16}")
    for policy, run in runs.items():
        turnaround = sum(p.end for p in run.placements) / len(run.placements)
        print(f"  {policy:>15} {run.makespan:8.3f}s {turnaround:15.3f}s")


if __name__ == "__main__":
    main()
