"""Chunk-to-node assignment: the data-distribution role of the data server.

Two mappings are produced for a run with ``n`` data nodes and ``c`` compute
nodes (``c >= n``, the paper's constraint):

1. **Chunk -> data node**: chunks are striped round-robin over data nodes,
   so node ``d`` stores chunks ``d, d + n, d + 2n, ...``.  When the chunk
   count does not divide evenly, some nodes hold one more chunk — a genuine
   source of load imbalance the prediction model does not see.
2. **Compute node -> data node**: compute nodes are split into contiguous
   blocks, one block per data node, so every compute node receives data
   from exactly one data node (no receive-side convergence).  Within its
   block, a data node deals its chunks round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "ChunkAssignment",
    "assign_chunks",
    "split_evenly",
    "map_roles_to_survivors",
    "unshipped_chunks",
]


def split_evenly(total: int, parts: int) -> List[int]:
    """Sizes of ``parts`` contiguous blocks covering ``total`` items.

    The first ``total % parts`` blocks get one extra item.

    >>> split_evenly(10, 3)
    [4, 3, 3]
    """
    if parts <= 0:
        raise ConfigurationError("parts must be positive")
    if total < 0:
        raise ConfigurationError("total must be >= 0")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


@dataclass(frozen=True)
class ChunkAssignment:
    """The complete distribution plan for one run.

    Attributes
    ----------
    data_node_chunks:
        ``data_node_chunks[d]`` — chunk indices stored on data node ``d``.
    compute_node_chunks:
        ``compute_node_chunks[j]`` — chunk indices processed by compute
        node ``j``.
    compute_source:
        ``compute_source[j]`` — the data node that feeds compute node ``j``.
    """

    data_node_chunks: List[List[int]]
    compute_node_chunks: List[List[int]]
    compute_source: List[int]

    @property
    def num_data_nodes(self) -> int:
        return len(self.data_node_chunks)

    @property
    def num_compute_nodes(self) -> int:
        return len(self.compute_node_chunks)


def assign_chunks(
    num_chunks: int, data_nodes: int, compute_nodes: int
) -> ChunkAssignment:
    """Build the distribution plan described in the module docstring.

    Raises :class:`~repro.simgrid.errors.ConfigurationError` when
    ``compute_nodes < data_nodes`` — FREERIDE-G does not consider M < N
    because its target applications "cannot effectively process data that
    is retrieved from a larger number of nodes" (Section 2.1).
    """
    if data_nodes <= 0 or compute_nodes <= 0:
        raise ConfigurationError("node counts must be positive")
    if compute_nodes < data_nodes:
        raise ConfigurationError(
            f"FREERIDE-G requires compute nodes >= data nodes "
            f"(got {compute_nodes} < {data_nodes})"
        )
    if num_chunks < compute_nodes:
        raise ConfigurationError(
            f"{num_chunks} chunks cannot keep {compute_nodes} compute nodes busy; "
            "use a smaller configuration or more chunks"
        )

    # 1. Stripe chunks over data nodes.
    data_node_chunks: List[List[int]] = [[] for _ in range(data_nodes)]
    for chunk in range(num_chunks):
        data_node_chunks[chunk % data_nodes].append(chunk)

    # 2. Contiguous blocks of compute nodes per data node.
    block_sizes = split_evenly(compute_nodes, data_nodes)
    compute_source: List[int] = []
    for d, size in enumerate(block_sizes):
        compute_source.extend([d] * size)

    # 3. Each data node deals its chunks round-robin to its block.
    compute_node_chunks: List[List[int]] = [[] for _ in range(compute_nodes)]
    start = 0
    for d, size in enumerate(block_sizes):
        block = list(range(start, start + size))
        start += size
        for i, chunk in enumerate(data_node_chunks[d]):
            compute_node_chunks[block[i % size]].append(chunk)

    return ChunkAssignment(
        data_node_chunks=data_node_chunks,
        compute_node_chunks=compute_node_chunks,
        compute_source=compute_source,
    )


@hot
def map_roles_to_survivors(
    compute_nodes: int, crashed: Sequence[int]
) -> Dict[int, List[int]]:
    """Executor -> reduction roles after compute-node crashes.

    Every original compute node is a *role*: its chunk list and its
    position in the gather order.  Recovery migrates a crashed node's
    whole role to a survivor — role-level (not chunk-level)
    redistribution keeps the reduction-object merge tree identical to the
    fault-free run, which is what makes recovered results bit-identical
    (see DESIGN.md, "Fault model and recovery semantics").

    Surviving nodes keep their own role; crashed roles are dealt
    round-robin over the survivors in node order.

    >>> map_roles_to_survivors(4, [2])
    {0: [0, 2], 1: [1], 3: [3]}
    """
    if compute_nodes <= 0:
        raise ConfigurationError("compute node count must be positive")
    crashed_set = set(crashed)
    if not all(0 <= j < compute_nodes for j in crashed_set):
        raise ConfigurationError(
            f"crashed node indices {sorted(crashed_set)} out of range "
            f"(0..{compute_nodes - 1})"
        )
    survivors = [j for j in range(compute_nodes) if j not in crashed_set]
    if not survivors:
        raise ConfigurationError("at least one compute node must survive")
    roles = {j: [j] for j in survivors}
    for i, role in enumerate(sorted(crashed_set)):
        roles[survivors[i % len(survivors)]].append(role)
    return roles


def unshipped_chunks(
    assignment: ChunkAssignment, data_node: int, shipped_fraction: float
) -> List[int]:
    """The chunk tail a crashed data node had not yet shipped.

    A data node streams its batch in order; crashing after
    ``shipped_fraction`` of it leaves the final
    ``len(batch) - floor(shipped_fraction * len(batch))`` chunks to be
    re-fetched from a failover replica.
    """
    if not 0.0 <= shipped_fraction <= 1.0:
        raise ConfigurationError("shipped fraction must be within [0, 1]")
    if not 0 <= data_node < assignment.num_data_nodes:
        raise ConfigurationError(
            f"data node index {data_node} out of range "
            f"(0..{assignment.num_data_nodes - 1})"
        )
    batch = assignment.data_node_chunks[data_node]
    shipped = int(shipped_fraction * len(batch))
    return list(batch[shipped:])
