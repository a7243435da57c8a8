"""Collective-communication schedules and their simulation.

The builders compile chunked, pipelined collective algorithms into logical
transfer DAGs; :mod:`repro.collectives.base` simulates them on abstract
fabrics or embedded onto physical topologies;
:mod:`repro.collectives.verification` proves schedules correct
symbolically.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AllReduceOutcome",
    "CollectiveSchedule",
    "simulate_on_fabric",
    "simulate_on_physical",
    "chunk_offsets",
    "chunks_covering",
    "optimal_chunk_count",
    "split_bytes",
    "ccube_allreduce",
    "double_tree_allreduce",
    "halving_doubling_allreduce",
    "ClusterSpec",
    "hierarchical_allreduce",
    "simulate_hierarchical",
    "DGX1_RING_ORDER",
    "ring_allreduce",
    "tree_allreduce",
    "check_allreduce",
    "check_allreduce_simulated",
    "delivers_in_order",
    "in_order_violations",
    "replay_dataflow",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "AllReduceOutcome": "base",
        "CollectiveSchedule": "base",
        "simulate_on_fabric": "base",
        "simulate_on_physical": "base",
        "chunk_offsets": "chunking",
        "chunks_covering": "chunking",
        "optimal_chunk_count": "chunking",
        "split_bytes": "chunking",
        "ccube_allreduce": "double_tree",
        "double_tree_allreduce": "double_tree",
        "halving_doubling_allreduce": "halving_doubling",
        "ClusterSpec": "hierarchical",
        "hierarchical_allreduce": "hierarchical",
        "simulate_hierarchical": "hierarchical",
        "DGX1_RING_ORDER": "ring",
        "ring_allreduce": "ring",
        "tree_allreduce": "tree",
        "check_allreduce": "verification",
        "check_allreduce_simulated": "verification",
        "delivers_in_order": "verification",
        "in_order_violations": "verification",
        "replay_dataflow": "verification",
    },
)
