"""Hierarchical (multi-node) AllReduce: C-Cube inside, tree across.

The paper's related-work section leaves open "how alternative physical
topologies in large-scale systems can be exploited"; the natural
extension of C-Cube to a cluster of DGX-1-class nodes is a three-phase
hierarchical AllReduce:

1. **intra-node reduce** — each node reduces its 8 GPUs' gradients onto a
   local *leader* GPU over the node's tree (NVLink-fast),
2. **inter-node AllReduce** — the leaders run an AllReduce across nodes
   over the cluster fabric (network-slow), using the overlapped tree so
   the two slow phases chain,
3. **intra-node broadcast** — each leader broadcasts the result down its
   node's tree.

Chaining applies at every boundary: an inter-node chunk may start as soon
as it finished the intra-node reduction, and an intra-node broadcast
chunk may start as soon as it returned from the inter-node phase — the
same Observation-#1 argument one level up.

Node ids: GPU ``g`` of node ``n`` is global id ``n * gpus_per_node + g``.
Logical edges inside a node carry a ``("edge", u, v, lane)`` key as usual;
inter-node edges connect leader GPUs and are distinguishable by crossing
a node boundary (the fabric's alpha/beta applies there — see
:func:`hierarchical_resources`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.errors import ConfigError
from repro.collectives.base import CollectiveSchedule, _build_outcome
from repro.collectives.chunking import chunk_offsets, split_bytes
from repro.sim.dag import Dag, Phase
from repro.sim.engine import DagSimulator
from repro.sim.resources import Channel, Processor
from repro.topology.embedding import edge_key, is_edge_key
from repro.topology.logical import BinaryTree, balanced_binary_tree


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of identical multi-GPU nodes.

    Attributes:
        nnodes: number of machines.
        gpus_per_node: GPUs per machine.
        intra_alpha / intra_beta: NVLink-class channel parameters inside
            a node.
        inter_alpha / inter_beta: network-class channel parameters
            between node leaders.
    """

    nnodes: int
    gpus_per_node: int = 8
    intra_alpha: float = 2e-6
    intra_beta: float = 1.0 / 25e9
    inter_alpha: float = 5e-6
    inter_beta: float = 1.0 / 12.5e9

    def __post_init__(self) -> None:
        if self.nnodes < 2:
            raise ConfigError("cluster needs at least 2 nodes")
        if self.gpus_per_node < 2:
            raise ConfigError("nodes need at least 2 GPUs")

    @property
    def total_gpus(self) -> int:
        return self.nnodes * self.gpus_per_node

    def global_id(self, node: int, gpu: int) -> int:
        return node * self.gpus_per_node + gpu

    def node_of(self, global_id: int) -> int:
        return global_id // self.gpus_per_node

    def is_inter_node(self, u: int, v: int) -> bool:
        return self.node_of(u) != self.node_of(v)


#: The local GPU that leads its node in the inter-node phase.
LEADER_GPU = 0


def hierarchical_allreduce(
    cluster: ClusterSpec,
    nbytes: float,
    *,
    nchunks: int,
    overlapped: bool = True,
) -> CollectiveSchedule:
    """Three-phase hierarchical AllReduce over the cluster.

    Args:
        cluster: cluster shape and channel parameters.
        nbytes: gradient bytes per GPU.
        nchunks: pipeline chunk count (shared by all three phases, so a
            chunk flows straight through: node-reduce -> inter -> bcast).
        overlapped: chain all phase boundaries per chunk (the C-Cube
            behaviour); when False, each phase is a global barrier.

    Local GPU :data:`LEADER_GPU` of each node is its leader.

    Returns:
        A :class:`CollectiveSchedule` over ``cluster.total_gpus`` nodes.
    """
    if nchunks < 1:
        raise ConfigError("need at least 1 chunk")

    intra_tree = balanced_binary_tree(cluster.gpus_per_node)
    intra_tree = _reroot(intra_tree, LEADER_GPU)
    inter_tree = balanced_binary_tree(cluster.nnodes)

    dag = Dag()
    sizes = split_bytes(nbytes, nchunks)
    final_ops: dict[int, list[int]] = {c: [] for c in range(nchunks)}
    arrival_ops: dict[tuple[int, int], int] = {}

    # Phase 1: intra-node reduction to each node's leader.
    reduced_at_leader: dict[tuple[int, int], int] = {}  # (node, chunk)
    bottom_up = list(reversed(intra_tree.bfs_order()))
    up_op: dict[tuple[int, int, int], int] = {}
    for node in range(cluster.nnodes):
        for chunk in range(nchunks):
            for local in bottom_up:
                if local == intra_tree.root:
                    continue
                deps = [
                    up_op[(node, chunk, child)]
                    for child in intra_tree.children[local]
                ]
                up_op[(node, chunk, local)] = dag.add(
                    edge_key(
                        cluster.global_id(node, local),
                        cluster.global_id(node, intra_tree.parent[local]),
                        0,
                    ),
                    nbytes=sizes[chunk],
                    deps=deps,
                    src=cluster.global_id(node, local),
                    dst=cluster.global_id(node, intra_tree.parent[local]),
                    chunk=chunk,
                    phase=Phase.REDUCE,
                    label=f"n{node} up c{chunk} l{local}",
                )
            reduced_at_leader[(node, chunk)] = dag.add(
                ("sync", "leader", node),
                duration=0.0,
                deps=[
                    up_op[(node, chunk, child)]
                    for child in intra_tree.children[intra_tree.root]
                ],
                src=cluster.global_id(node, LEADER_GPU),
                dst=cluster.global_id(node, LEADER_GPU),
                chunk=chunk,
                phase=Phase.REDUCE,
                label=f"n{node} leader-reduced c{chunk}",
            )

    intra_barrier = None
    if not overlapped:
        intra_barrier = dag.add(
            ("sync", "intra-barrier"),
            duration=0.0,
            deps=list(reduced_at_leader.values()),
            phase=Phase.REDUCE,
            label="intra phase barrier",
        )

    # Phase 2: inter-node AllReduce among leaders over `inter_tree`.
    inter_up: dict[tuple[int, int], int] = {}  # (chunk, node)
    inter_bottom_up = list(reversed(inter_tree.bfs_order()))
    for chunk in range(nchunks):
        for node in inter_bottom_up:
            if node == inter_tree.root:
                continue
            deps = [reduced_at_leader[(node, chunk)]]
            if intra_barrier is not None:
                deps = [intra_barrier]
            deps += [
                inter_up[(chunk, child)]
                for child in inter_tree.children[node]
            ]
            inter_up[(chunk, node)] = dag.add(
                edge_key(
                    cluster.global_id(node, LEADER_GPU),
                    cluster.global_id(inter_tree.parent[node], LEADER_GPU),
                    0,
                ),
                nbytes=sizes[chunk],
                deps=deps,
                src=cluster.global_id(node, LEADER_GPU),
                dst=cluster.global_id(inter_tree.parent[node], LEADER_GPU),
                chunk=chunk,
                phase=Phase.REDUCE,
                tree=1,
                label=f"inter up c{chunk} n{node}",
            )

    inter_reduced: dict[int, int] = {}
    for chunk in range(nchunks):
        deps = [reduced_at_leader[(inter_tree.root, chunk)]]
        deps += [
            inter_up[(chunk, child)]
            for child in inter_tree.children[inter_tree.root]
        ]
        inter_reduced[chunk] = dag.add(
            ("sync", "inter-root"),
            duration=0.0,
            deps=deps,
            src=cluster.global_id(inter_tree.root, LEADER_GPU),
            dst=cluster.global_id(inter_tree.root, LEADER_GPU),
            chunk=chunk,
            phase=Phase.REDUCE,
            tree=1,
            label=f"inter reduced c{chunk}",
        )

    inter_barrier = None
    if not overlapped:
        inter_barrier = dag.add(
            ("sync", "inter-barrier"),
            duration=0.0,
            deps=list(inter_reduced.values()),
            phase=Phase.REDUCE,
            label="inter phase barrier",
        )

    # Inter-node broadcast back to every leader.
    leader_has: dict[tuple[int, int], int] = {}  # (node, chunk)
    inter_down: dict[tuple[int, int], int] = {}
    for chunk in range(nchunks):
        leader_has[(inter_tree.root, chunk)] = inter_reduced[chunk]
        for node in inter_tree.bfs_order():
            for child in inter_tree.children[node]:
                if node == inter_tree.root:
                    deps = [inter_reduced[chunk]]
                    if inter_barrier is not None:
                        deps.append(inter_barrier)
                else:
                    deps = [inter_down[(chunk, node)]]
                op_id = dag.add(
                    edge_key(
                        cluster.global_id(node, LEADER_GPU),
                        cluster.global_id(child, LEADER_GPU),
                        0,
                    ),
                    nbytes=sizes[chunk],
                    deps=deps,
                    src=cluster.global_id(node, LEADER_GPU),
                    dst=cluster.global_id(child, LEADER_GPU),
                    chunk=chunk,
                    phase=Phase.BROADCAST,
                    tree=1,
                    label=f"inter down c{chunk} n{node}->n{child}",
                )
                inter_down[(chunk, child)] = op_id
                leader_has[(child, chunk)] = op_id

    # Phase 3: intra-node broadcast from each leader.
    for node in range(cluster.nnodes):
        for chunk in range(nchunks):
            down_op: dict[int, int] = {}
            leader_gid = cluster.global_id(node, LEADER_GPU)
            arrival_ops[(leader_gid, chunk)] = leader_has[(node, chunk)]
            final_ops[chunk].append(leader_has[(node, chunk)])
            for local in intra_tree.bfs_order():
                for child in intra_tree.children[local]:
                    if local == intra_tree.root:
                        deps = [leader_has[(node, chunk)]]
                    else:
                        deps = [down_op[local]]
                    gid_child = cluster.global_id(node, child)
                    op_id = dag.add(
                        edge_key(
                            cluster.global_id(node, local), gid_child, 0
                        ),
                        nbytes=sizes[chunk],
                        deps=deps,
                        src=cluster.global_id(node, local),
                        dst=gid_child,
                        chunk=chunk,
                        phase=Phase.BROADCAST,
                        label=f"n{node} down c{chunk} l{local}->l{child}",
                    )
                    down_op[child] = op_id
                    arrival_ops[(gid_child, chunk)] = op_id
                    final_ops[chunk].append(op_id)

    schedule = CollectiveSchedule(
        dag=dag,
        algorithm=(
            "hierarchical_overlapped" if overlapped else "hierarchical"
        ),
        nnodes=cluster.total_gpus,
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


def hierarchical_resources(
    schedule: CollectiveSchedule, cluster: ClusterSpec
) -> dict[Hashable, object]:
    """Channels for a hierarchical schedule: NVLink-class inside a node,
    network-class between nodes."""
    resources: dict[Hashable, object] = {}
    for key in schedule.dag.resources():
        if is_edge_key(key):
            _tag, u, v, lane = key
            if cluster.is_inter_node(u, v):
                resources[key] = Channel(
                    alpha=cluster.inter_alpha,
                    beta=cluster.inter_beta,
                    name=f"net {u}->{v}#{lane}",
                )
            else:
                resources[key] = Channel(
                    alpha=cluster.intra_alpha,
                    beta=cluster.intra_beta,
                    name=f"nvl {u}->{v}#{lane}",
                )
        else:
            resources[key] = Processor(name=str(key))
    return resources


def simulate_hierarchical(
    cluster: ClusterSpec,
    nbytes: float,
    *,
    nchunks: int,
    overlapped: bool = True,
):
    """Build and simulate a hierarchical AllReduce; returns the outcome."""
    schedule = hierarchical_allreduce(
        cluster, nbytes, nchunks=nchunks, overlapped=overlapped
    )
    resources = hierarchical_resources(schedule, cluster)
    sim = DagSimulator(resources).run(schedule.dag)
    return _build_outcome(schedule, sim, sim.finish)


def _reroot(tree: BinaryTree, new_root: int) -> BinaryTree:
    """Relabel the tree so ``new_root`` sits at the root (swap labels)."""
    if new_root == tree.root:
        return tree
    mapping = {n: n for n in tree.nodes}
    mapping[tree.root] = new_root
    mapping[new_root] = tree.root
    rerooted = tree.relabel(mapping)
    rerooted.validate()
    return rerooted
