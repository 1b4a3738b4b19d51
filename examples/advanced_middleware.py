#!/usr/bin/env python
"""Advanced middleware features: SMP nodes and tree gather.

Demonstrates two middleware extensions beyond the paper's evaluated
configuration space:

1. **Cluster-of-SMPs execution** (a stated FREERIDE-G feature) — the
   dual-processor Opteron nodes run two reduction threads each, halving
   the number of gathered reduction objects at the cost of memory-bus
   contention.
2. **Tree gather** (ablation) — replacing the serialized master gather by
   a binomial tree.

Run:  python examples/advanced_middleware.py
"""

from repro.middleware import FreerideGRuntime, GatherTopology
from repro.workloads import make_run_config, opteron_infiniband_cluster
from repro.workloads.registry import WORKLOADS


def show(label, breakdown) -> None:
    print(f"  {label:34s} total {breakdown.total:.4f}s "
          f"(compute {breakdown.t_compute:.4f}, T_ro {breakdown.t_ro:.5f})")


def main() -> None:
    spec = WORKLOADS["em"]
    dataset = spec.make_dataset("350 MB")
    opteron = opteron_infiniband_cluster()

    # ------------------------------------------------------------------
    # 1. SMP: equal slots, different shapes.
    # ------------------------------------------------------------------
    print("cluster-of-SMPs execution (EM, 16 total slots):")
    flat = make_run_config(2, 16, storage_cluster=opteron)
    smp = make_run_config(2, 8, storage_cluster=opteron).with_processes_per_node(2)
    run_flat = FreerideGRuntime(flat).execute(spec.make_app(), dataset)
    run_smp = FreerideGRuntime(smp).execute(spec.make_app(), dataset)
    show("16 nodes x 1 process", run_flat.breakdown)
    show("8 nodes x 2 processes", run_smp.breakdown)
    print("  (half the gather messages; kernel pays memory contention)")

    # ------------------------------------------------------------------
    # 2. Serial vs tree gather at 16 nodes.
    # ------------------------------------------------------------------
    print("\ngather topology at 2-16 (EM):")
    serial = make_run_config(2, 16, storage_cluster=opteron)
    tree = serial.with_gather_topology(GatherTopology.TREE)
    run_serial = FreerideGRuntime(serial).execute(spec.make_app(), dataset)
    run_tree = FreerideGRuntime(tree).execute(spec.make_app(), dataset)
    show("serialized master gather", run_serial.breakdown)
    show("binomial-tree gather", run_tree.breakdown)


if __name__ == "__main__":
    main()
