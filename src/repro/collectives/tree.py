"""Tree AllReduce schedules: baseline and overlapped (the paper's C1).

A tree AllReduce pipelines K chunks up the tree (reduction) and back down
(broadcast).  The *baseline* algorithm finishes the entire reduction phase
before any broadcast begins (paper Fig. 5(a) / Fig. 7(a)).  The
*overlapped* tree (paper Section III-C, Fig. 5(c) / Fig. 7(b)) starts
broadcasting chunk c down the idle downlinks as soon as chunk c is fully
reduced at the root, chaining the two phases:

- Observation #1 — early chunks otherwise sit at the root waiting;
- Observation #2 — downlinks are unused during reduction (channels are
  bidirectional: two independent unidirectional channels).

The builder emits one logical transfer op per (chunk, tree edge, phase),
with dependencies encoding exactly the data constraints; pipelining across
chunks emerges from channel FIFO serialization in the simulator.  Ops
store :class:`~repro.sim.dag.Label` templates, not strings: their labels
(``up c3 4->2``, ``down c3 2->5``, ``reduced c3@0``, ``phase barrier t0``)
are formatted from the op's fields when read.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.collectives.base import CollectiveSchedule
from repro.collectives.chunking import chunk_offsets, split_bytes
from repro.sim.dag import Dag, Label, Phase
from repro.topology.embedding import edge_key
from repro.topology.logical import BinaryTree, balanced_binary_tree


def emit_tree_allreduce(
    dag: Dag,
    tree: BinaryTree,
    *,
    chunk_ids: list[int],
    chunk_sizes: dict[int, float],
    tree_index: int,
    overlapped: bool,
    final_ops: dict[int, list[int]],
    arrival_ops: dict[tuple[int, int], int],
) -> None:
    """Emit the ops of one tree's AllReduce into ``dag`` (shared builder
    for single-, double-, and overlapped-tree schedules).

    Args:
        dag: target DAG (may already contain another tree's ops).
        tree: the logical reduction/broadcast tree.
        chunk_ids: global chunk ids this tree carries, in pipeline order.
        chunk_sizes: size of each global chunk.
        tree_index: tree id; used as the logical lane hint so two trees
            can be granted separate physical lanes where they exist.
        overlapped: chain broadcast after per-chunk reduction (C1) instead
            of after the whole reduction phase (baseline).
        final_ops / arrival_ops: output maps, updated in place.
    """
    nodes_bottom_up = list(reversed(tree.bfs_order()))
    up_op: dict[tuple[int, int], int] = {}  # (chunk, node) -> op id

    for chunk in chunk_ids:
        for node in nodes_bottom_up:
            if node == tree.root:
                continue
            deps = [up_op[(chunk, child)] for child in tree.children[node]]
            up_op[(chunk, node)] = dag.add(
                edge_key(node, tree.parent[node], tree_index),
                nbytes=chunk_sizes[chunk],
                deps=deps,
                src=node,
                dst=tree.parent[node],
                chunk=chunk,
                phase=Phase.REDUCE,
                tree=tree_index,
                label=Label.UP,
            )

    # Zero-duration marker per chunk: "fully reduced at the root".
    reduced_at_root: dict[int, int] = {}
    for chunk in chunk_ids:
        reduced_at_root[chunk] = dag.add(
            ("sync", "root", tree_index),
            duration=0.0,
            deps=[up_op[(chunk, child)] for child in tree.children[tree.root]],
            src=tree.root,
            dst=tree.root,
            chunk=chunk,
            phase=Phase.REDUCE,
            tree=tree_index,
            label=Label.REDUCED,
        )
        arrival_ops[(tree.root, chunk)] = reduced_at_root[chunk]

    barrier: int | None = None
    if not overlapped:
        barrier = dag.add(
            ("sync", "barrier", tree_index),
            duration=0.0,
            deps=list(reduced_at_root.values()),
            phase=Phase.REDUCE,
            tree=tree_index,
            label=Label.BARRIER,
        )

    down_op: dict[tuple[int, int], int] = {}
    for chunk in chunk_ids:
        finals = [reduced_at_root[chunk]]
        for node in tree.bfs_order():
            for child in tree.children[node]:
                if node == tree.root:
                    deps = [reduced_at_root[chunk]]
                    if barrier is not None:
                        deps.append(barrier)
                else:
                    deps = [down_op[(chunk, node)]]
                op_id = dag.add(
                    edge_key(node, child, tree_index),
                    nbytes=chunk_sizes[chunk],
                    deps=deps,
                    src=node,
                    dst=child,
                    chunk=chunk,
                    phase=Phase.BROADCAST,
                    tree=tree_index,
                    label=Label.DOWN,
                )
                down_op[(chunk, child)] = op_id
                arrival_ops[(child, chunk)] = op_id
                finals.append(op_id)
        final_ops[chunk] = finals


def tree_allreduce(
    nnodes: int,
    nbytes: float,
    *,
    nchunks: int,
    tree: BinaryTree | None = None,
    overlapped: bool = False,
) -> CollectiveSchedule:
    """Single-tree AllReduce schedule.

    Args:
        nnodes: node count (P >= 2).
        nbytes: total message size.
        nchunks: pipeline chunk count K (use
            :func:`repro.collectives.chunking.optimal_chunk_count`).
        tree: logical tree (defaults to a balanced binary tree on 0..P-1).
        overlapped: chain reduction and broadcast (the paper's C1).
    """
    if nnodes < 2:
        raise ConfigError("tree allreduce needs at least 2 nodes")
    if nchunks < 1:
        raise ConfigError("need at least 1 chunk")
    tree = tree or balanced_binary_tree(nnodes)
    if tree.nnodes != nnodes:
        raise ConfigError(
            f"tree has {tree.nnodes} nodes, expected {nnodes}"
        )

    dag = Dag()
    sizes = split_bytes(nbytes, nchunks)
    size_map = dict(enumerate(sizes))
    final_ops: dict[int, list[int]] = {}
    arrival_ops: dict[tuple[int, int], int] = {}
    emit_tree_allreduce(
        dag,
        tree,
        chunk_ids=list(range(nchunks)),
        chunk_sizes=size_map,
        tree_index=0,
        overlapped=overlapped,
        final_ops=final_ops,
        arrival_ops=arrival_ops,
    )
    schedule = CollectiveSchedule(
        dag=dag,
        algorithm="overlapped_tree" if overlapped else "tree",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=sizes,
        chunk_offsets=chunk_offsets(sizes),
        final_ops=final_ops,
        arrival_ops=arrival_ops,
        overlapped=overlapped,
        ntrees=1,
    )
    schedule.validate()
    return schedule
