"""Collective-communication schedules and their simulation.

The builders compile chunked, pipelined collective algorithms into logical
transfer DAGs; :mod:`repro.collectives.base` simulates them on abstract
fabrics or embedded onto physical topologies;
:mod:`repro.collectives.verification` proves schedules correct
symbolically.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.errors import ConfigError

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
    "build_allreduce",
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

#: Algorithm name -> the exported builder :func:`build_allreduce` calls
#: (resolved on first use, so importing this package loads no emitter).
_BUILDERS = {
    "ring": "ring_allreduce",
    "tree": "tree_allreduce",
    "overlapped_tree": "tree_allreduce",
    "double_tree": "double_tree_allreduce",
    "ccube": "ccube_allreduce",
}

#: Builders by algorithm name, for :func:`build_allreduce`.
ALGORITHMS = tuple(_BUILDERS)


def build_allreduce(
    algorithm: str,
    nnodes: int,
    nbytes: float,
    *,
    nchunks: int = 1,
    **kwargs: object,
) -> CollectiveSchedule:
    """Build an AllReduce schedule by algorithm name.

    Args:
        algorithm: one of :data:`ALGORITHMS`.
        nnodes: node count.
        nbytes: message size in bytes.
        nchunks: pipeline chunk count (ignored by "ring", which always
            uses P chunks per ring).
        **kwargs: forwarded to the specific builder (``tree``, ``trees``,
            ``order``, ``nrings``, ...).
    """
    if algorithm not in _BUILDERS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    builder = __getattr__(_BUILDERS[algorithm])
    if algorithm == "overlapped_tree":
        kwargs["overlapped"] = True
    if algorithm == "ring":
        kwargs.pop("nchunks", None)
        return builder(nnodes, nbytes, **kwargs)
    return builder(nnodes, nbytes, nchunks=nchunks, **kwargs)
