"""Analytical alpha-beta cost models (paper Section II-C, Eq. 1-7)."""

from repro._lazy import lazy_exports

__all__ = [
    "CostParams",
    "optimal_chunks",
    "ring_allreduce_time",
    "ring_allgather_time",
    "tree_allreduce_time",
    "tree_phase_time",
    "overlapped_tree_time",
    "turnaround_baseline",
    "turnaround_overlapped",
    "tree_over_ring_ratio",
    "InvocationModel",
    "one_shot_time",
    "layer_wise_time",
    "sliced_time",
    "effective_bandwidth",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CostParams": "costmodel",
        "optimal_chunks": "costmodel",
        "ring_allreduce_time": "costmodel",
        "ring_allgather_time": "costmodel",
        "tree_allreduce_time": "costmodel",
        "tree_phase_time": "costmodel",
        "overlapped_tree_time": "costmodel",
        "turnaround_baseline": "costmodel",
        "turnaround_overlapped": "costmodel",
        "tree_over_ring_ratio": "costmodel",
        "InvocationModel": "invocation",
        "one_shot_time": "invocation",
        "layer_wise_time": "invocation",
        "sliced_time": "invocation",
        "effective_bandwidth": "invocation",
    },
)
