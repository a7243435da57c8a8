"""Chunked ring AllReduce (the paper's "R" baseline).

The ring algorithm runs Reduce-Scatter then AllGather around a logical
ring: the message is split into P chunks; in each of the P-1 reduce-scatter
steps every node forwards one chunk to its successor, reducing it into the
local partial sum; P-1 all-gather steps then circulate the fully reduced
chunks.  Cost: ``2(P-1) * (alpha + beta * N/P)`` (paper Eq. 2).

NCCL builds *multiple* rings over disjoint channel sets to use every
NVLink; ``nrings`` reproduces that (each ring carries ``N/nrings`` bytes on
its own lane).

Note the property the paper's Observation #3 contrasts against: at the end
of reduce-scatter each node holds a *different* reduced chunk, so no global
chunk order is preserved — which is why computation chaining (gradient
queuing) cannot be layered on the ring algorithm.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError
from repro.collectives.base import CollectiveSchedule
from repro.collectives.chunking import chunk_offsets, split_bytes
from repro.sim.dag import Dag, Phase
from repro.topology.dgx1 import DGX1_RING_ORDER  # noqa: F401  (re-export)
from repro.topology.embedding import edge_key


def ring_allreduce(
    nnodes: int,
    nbytes: float,
    *,
    order: Sequence[int] | None = None,
    nrings: int = 1,
) -> CollectiveSchedule:
    """Build a ring AllReduce schedule.

    Args:
        nnodes: number of nodes (P >= 2).
        nbytes: total message size.
        order: ring traversal order (defaults to 0..P-1).  Each ring uses
            the same order but its own channel lane.
        nrings: number of concurrent rings; data is split evenly and each
            ring's transfers use lane ``ring_index``.

    Returns:
        The compiled :class:`CollectiveSchedule` — ``nnodes * nrings``
        global chunks of ``nbytes / (nnodes * nrings)`` bytes each.
    """
    if nnodes < 2:
        raise ConfigError("ring needs at least 2 nodes")
    if nrings < 1:
        raise ConfigError("need at least 1 ring")
    order = list(order) if order is not None else list(range(nnodes))
    if sorted(order) != list(range(nnodes)):
        raise ConfigError("order must be a permutation of 0..P-1")

    dag = Dag()
    nchunks_total = nnodes * nrings
    chunk_sizes = split_bytes(nbytes, nchunks_total)
    offsets = chunk_offsets(chunk_sizes)
    final_ops: dict[int, list[int]] = {}
    arrival_ops: dict[tuple[int, int], int] = {}

    def succ(pos: int) -> int:
        return (pos + 1) % nnodes

    for ring in range(nrings):
        ring_bytes = nbytes / nrings
        per_chunk = ring_bytes / nnodes
        for local_chunk in range(nnodes):
            chunk = ring * nnodes + local_chunk
            prev_op: int | None = None
            # Reduce-scatter: chunk c starts at position c, hops P-1 times.
            for step in range(nnodes - 1):
                src_pos = (local_chunk + step) % nnodes
                dst_pos = succ(src_pos)
                prev_op = dag.add(
                    edge_key(order[src_pos], order[dst_pos], ring),
                    nbytes=per_chunk,
                    deps=[] if prev_op is None else [prev_op],
                    src=order[src_pos],
                    dst=order[dst_pos],
                    chunk=chunk,
                    phase=Phase.REDUCE_SCATTER,
                    tree=ring,
                    label=f"rs c{chunk} s{step}",
                )
            owner_pos = (local_chunk + nnodes - 1) % nnodes
            assert prev_op is not None
            arrival_ops[(order[owner_pos], chunk)] = prev_op
            finals = [prev_op]
            # All-gather: the owner circulates the reduced chunk.
            for step in range(nnodes - 1):
                src_pos = (owner_pos + step) % nnodes
                dst_pos = succ(src_pos)
                prev_op = dag.add(
                    edge_key(order[src_pos], order[dst_pos], ring),
                    nbytes=per_chunk,
                    deps=[prev_op],
                    src=order[src_pos],
                    dst=order[dst_pos],
                    chunk=chunk,
                    phase=Phase.ALL_GATHER,
                    tree=ring,
                    label=f"ag c{chunk} s{step}",
                )
                arrival_ops[(order[dst_pos], chunk)] = prev_op
                finals.append(prev_op)
            final_ops[chunk] = finals

    schedule = CollectiveSchedule(
        dag=dag,
        algorithm="ring" if nrings == 1 else f"ring x{nrings}",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=chunk_sizes,
        chunk_offsets=offsets,
        final_ops=final_ops,
        arrival_ops=arrival_ops,
        overlapped=False,
        ntrees=nrings,
    )
    schedule.validate()
    return schedule
