"""Double-binary-tree AllReduce: baseline (B) and overlapped (C-Cube).

The two-tree algorithm (Sanders et al., used by NCCL) runs two binary
trees concurrently, each carrying half the message, to use both directions
of the tree links and double effective bandwidth.  The paper's baseline
"B" is this algorithm with separated phases.

Overlapping the phases *within* a double tree is only possible when the
physical topology provides independent channels for the edges the two
trees share with opposite orientations (paper Section IV-A) — on the
DGX-1, the duplicated GPU2-GPU3 / GPU6-GPU7 NVLinks.  The builder encodes
tree membership in each op's ``tree`` field and lane hint, so:

- on an abstract fabric with ``lanes >= 2`` the trees get disjoint
  channels and overlap cleanly,
- on the physical DGX-1, the embedding assigns ``tree % lane_count``
  physical lanes — trees share single channels where no duplicate exists,
  which is exactly the contention the conflict ablation measures.

Chunks are assigned to trees by **byte halves** (tree 0 carries
``[0, N/2)``, tree 1 carries ``[N/2, N)``), matching NCCL's split; chunk
ids are global and chunk offsets locate each chunk's bytes for gradient
queuing.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.collectives.base import CollectiveSchedule
from repro.collectives.chunking import chunk_offsets, split_bytes
from repro.topology.logical import BinaryTree, two_trees


def double_tree_allreduce(
    nnodes: int,
    nbytes: float,
    *,
    nchunks: int,
    trees: tuple[BinaryTree, BinaryTree] | None = None,
    overlapped: bool = False,
) -> CollectiveSchedule:
    """Double-tree AllReduce schedule.

    Args:
        nnodes: node count (P >= 2).
        nbytes: total message size; each tree carries half.
        nchunks: pipeline chunks **per tree** (K); the schedule has
            ``2 * nchunks`` global chunks of ``N / (2K)`` bytes.
        trees: the tree pair (defaults to the balanced/mirrored
            Sanders pair from :func:`repro.topology.logical.two_trees`).
        overlapped: chain reduction/broadcast within each tree —
            the communication component of C-Cube.
    """
    from repro.collectives.tree import emit_tree_allreduce
    from repro.sim.dag import Dag

    if nnodes < 2:
        raise ConfigError("double tree needs at least 2 nodes")
    if nchunks < 1:
        raise ConfigError("need at least 1 chunk per tree")
    pair = trees or two_trees(nnodes)
    for tree in pair:
        if tree.nnodes != nnodes:
            raise ConfigError(
                f"tree has {tree.nnodes} nodes, expected {nnodes}"
            )

    dag = Dag()
    total_chunks = 2 * nchunks
    sizes = split_bytes(nbytes, total_chunks)
    size_map = dict(enumerate(sizes))
    final_ops: dict[int, list[int]] = {}
    arrival_ops: dict[tuple[int, int], int] = {}
    for tree_index, tree in enumerate(pair):
        chunk_ids = list(
            range(tree_index * nchunks, (tree_index + 1) * nchunks)
        )
        emit_tree_allreduce(
            dag,
            tree,
            chunk_ids=chunk_ids,
            chunk_sizes=size_map,
            tree_index=tree_index,
            overlapped=overlapped,
            final_ops=final_ops,
            arrival_ops=arrival_ops,
        )

    schedule = CollectiveSchedule(
        dag=dag,
        algorithm="ccube_double_tree" if overlapped else "double_tree",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=sizes,
        chunk_offsets=chunk_offsets(sizes),
        final_ops=final_ops,
        arrival_ops=arrival_ops,
        overlapped=overlapped,
        ntrees=2,
    )
    schedule.validate()
    return schedule


def ccube_allreduce(
    nnodes: int,
    nbytes: float,
    *,
    nchunks: int,
    trees: tuple[BinaryTree, BinaryTree] | None = None,
) -> CollectiveSchedule:
    """The communication side of C-Cube: overlapped double tree."""
    return double_tree_allreduce(
        nnodes, nbytes, nchunks=nchunks, trees=trees, overlapped=True
    )
