"""Build the collectives as :class:`~repro.plan.ir.Plan`s.

Each builder emits the program the thread-backed runtime executes (the
tree runtime's program is compiled from the tree builders), with the
accumulation order :func:`~repro.runtime.training.tree_reduce_order`
replays, and the DES lowering reproduces the hand-written emitter
schedule's dependence structure op for op.
"""

from __future__ import annotations

from typing import Sequence

from ..codes import Phase
from ..collectives.chunking import chunk_offsets, split_bytes
from ..errors import ConfigError
from ..topology.dgx1 import DGX1_RING_ORDER  # noqa: F401  (re-export)
from ..topology.logical import BinaryTree, balanced_binary_tree, two_trees
from .ir import COPY, RECV, REDUCE, SEND, Label, Plan, stamp_origin

__all__ = [
    "build_tree_plan",
    "build_double_tree_plan",
    "build_ring_plan",
    "build_halving_doubling_plan",
    "BUILDERS",
    "build_plan",
]


def _emit_tree(
    plan: Plan,
    tree: BinaryTree,
    *,
    chunk_ids: Sequence[int],
    sizes: Sequence[float],
    tree_index: int,
    overlapped: bool,
) -> None:
    """Emit one tree's reduce+broadcast program into ``plan``.

    Mirrors :func:`repro.collectives.tree.emit_tree_allreduce` (dep
    structure, for DES parity) and
    :func:`repro.runtime.training.tree_reduce_order` (accumulation
    order, for bit-exactness): each node runs a ``(t, "up")`` thread
    block that accumulates its children in ``tree.children`` order then
    sends up, and a ``(t, "down")`` block that receives from its parent
    and fans out.
    """
    t = tree_index
    tb_up = (t, "up")
    tb_down = (t, "down")
    bottom_up = list(reversed(tree.bfs_order()))
    marker: dict[int, int] = {}  # chunk -> "reduced at root" COPY op id

    for chunk in chunk_ids:
        size = sizes[chunk]
        for node in bottom_up:
            red_ids = []
            for child in tree.children[node]:
                red_ids.append(plan.add(
                    rank=node,
                    kind=REDUCE,
                    chunk=chunk,
                    peer=child,
                    nbytes=size,
                    lane=t,
                    tree=t,
                    tb=tb_up,
                    phase=Phase.REDUCE,
                    label=Label.REDUCE,
                ))
            if node == tree.root:
                marker[chunk] = plan.add(
                    rank=node,
                    kind=COPY,
                    chunk=chunk,
                    tree=t,
                    tb=tb_up,
                    phase=Phase.REDUCE,
                    deps=red_ids,
                    label=Label.REDUCED,
                )
            else:
                plan.add(
                    rank=node,
                    kind=SEND,
                    chunk=chunk,
                    peer=tree.parent[node],
                    nbytes=size,
                    lane=t,
                    tree=t,
                    tb=tb_up,
                    phase=Phase.REDUCE,
                    deps=red_ids,
                    label=Label.UP,
                )

    barrier: int | None = None
    if not overlapped:
        barrier = plan.add(
            rank=tree.root,
            kind=COPY,
            tree=t,
            tb=tb_down,
            phase=Phase.REDUCE,
            deps=[marker[c] for c in chunk_ids],
            label=Label.BARRIER,
        )

    for chunk in chunk_ids:
        size = sizes[chunk]
        for node in tree.bfs_order():
            if node == tree.root:
                deps = (marker[chunk],)
                if barrier is not None:
                    deps = (marker[chunk], barrier)
            else:
                recv = plan.add(
                    rank=node,
                    kind=RECV,
                    chunk=chunk,
                    peer=tree.parent[node],
                    nbytes=size,
                    lane=t,
                    tree=t,
                    tb=tb_down,
                    phase=Phase.BROADCAST,
                    label=Label.DOWN_RECV,
                )
                deps = (recv,)
            for child in tree.children[node]:
                plan.add(
                    rank=node,
                    kind=SEND,
                    chunk=chunk,
                    peer=child,
                    nbytes=size,
                    lane=t,
                    tree=t,
                    tb=tb_down,
                    phase=Phase.BROADCAST,
                    deps=deps,
                    label=Label.DOWN,
                )


def build_tree_plan(
    nnodes: int,
    nbytes: float,
    *,
    nchunks: int,
    tree: BinaryTree | None = None,
    overlapped: bool = False,
) -> Plan:
    """Single-tree AllReduce plan (baseline or the paper's C1)."""
    if nnodes < 2:
        raise ConfigError("tree allreduce needs at least 2 nodes")
    if nchunks < 1:
        raise ConfigError("need at least 1 chunk")
    tree = tree or balanced_binary_tree(nnodes)
    if tree.nnodes != nnodes:
        raise ConfigError(f"tree has {tree.nnodes} nodes, expected {nnodes}")
    sizes = split_bytes(nbytes, nchunks)
    plan = Plan(
        algorithm="overlapped_tree" if overlapped else "tree",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=tuple(sizes),
        chunk_offsets=tuple(chunk_offsets(sizes)),
        ntrees=1,
    )
    _emit_tree(
        plan,
        tree,
        chunk_ids=range(nchunks),
        sizes=sizes,
        tree_index=0,
        overlapped=overlapped,
    )
    return stamp_origin(plan, f"builder:{plan.algorithm}")


def build_double_tree_plan(
    nnodes: int,
    nbytes: float,
    *,
    nchunks: int,
    trees: tuple[BinaryTree, BinaryTree] | None = None,
    overlapped: bool = False,
) -> Plan:
    """Double-binary-tree AllReduce plan; ``overlapped=True`` is C-Cube.

    ``nchunks`` is per tree; tree 0 carries global chunks
    ``[0, nchunks)`` and tree 1 carries ``[nchunks, 2*nchunks)``,
    matching :func:`repro.collectives.double_tree.double_tree_allreduce`.
    """
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
    sizes = split_bytes(nbytes, 2 * nchunks)
    plan = Plan(
        algorithm="ccube_double_tree" if overlapped else "double_tree",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=tuple(sizes),
        chunk_offsets=tuple(chunk_offsets(sizes)),
        ntrees=2,
    )
    for tree_index, tree in enumerate(pair):
        _emit_tree(
            plan,
            tree,
            chunk_ids=range(tree_index * nchunks, (tree_index + 1) * nchunks),
            sizes=sizes,
            tree_index=tree_index,
            overlapped=overlapped,
        )
    return stamp_origin(plan, f"builder:{plan.algorithm}")


def build_ring_plan(
    nnodes: int,
    nbytes: float,
    *,
    order: Sequence[int] | None = None,
    nrings: int = 1,
) -> Plan:
    """Chunked ring AllReduce plan (reduce-scatter + all-gather).

    Emission is step-major so each rank's thread block interleaves
    send-then-receive per step; explicit deps chain each chunk's hops
    for the DES lowering.  Each rank's program writes the fully reduced
    chunks in a different rotation of the chunk ids, so the ring has no
    single global completion order (the paper's Observation #3).
    """
    if nnodes < 2:
        raise ConfigError("ring needs at least 2 nodes")
    if nrings < 1:
        raise ConfigError("need at least 1 ring")
    order = list(order) if order is not None else list(range(nnodes))
    if sorted(order) != list(range(nnodes)):
        raise ConfigError("order must be a permutation of 0..P-1")

    sizes = split_bytes(nbytes, nnodes * nrings)
    plan = Plan(
        algorithm="ring" if nrings == 1 else f"ring x{nrings}",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=tuple(sizes),
        chunk_offsets=tuple(chunk_offsets(sizes)),
        ntrees=nrings,
    )
    p = nnodes
    # (rank, chunk) -> op id of the last local write (reduce/recv), used
    # to chain each chunk's hops across steps.
    last_write: dict[tuple[int, int], int] = {}
    for ring in range(nrings):
        for step in range(p - 1):
            for pos in range(p):
                chunk = ring * p + (pos - step) % p
                rank, peer = order[pos], order[(pos + 1) % p]
                dep = last_write.get((rank, chunk))
                plan.add(
                    rank=rank,
                    kind=SEND,
                    chunk=chunk,
                    peer=peer,
                    nbytes=sizes[chunk],
                    lane=ring,
                    tree=ring,
                    tb=ring,
                    phase=Phase.REDUCE_SCATTER,
                    deps=() if dep is None else (dep,),
                    label=Label.RS,
                    label_arg=step,
                )
            for pos in range(p):
                chunk = ring * p + (pos - step - 1) % p
                rank, peer = order[pos], order[(pos - 1) % p]
                last_write[(rank, chunk)] = plan.add(
                    rank=rank,
                    kind=REDUCE,
                    chunk=chunk,
                    peer=peer,
                    nbytes=sizes[chunk],
                    lane=ring,
                    tree=ring,
                    tb=ring,
                    phase=Phase.REDUCE_SCATTER,
                    label=Label.RS_ACC,
                    label_arg=step,
                )
        for step in range(p - 1):
            for pos in range(p):
                chunk = ring * p + (pos + 1 - step) % p
                rank, peer = order[pos], order[(pos + 1) % p]
                dep = last_write.get((rank, chunk))
                plan.add(
                    rank=rank,
                    kind=SEND,
                    chunk=chunk,
                    peer=peer,
                    nbytes=sizes[chunk],
                    lane=ring,
                    tree=ring,
                    tb=ring,
                    phase=Phase.ALL_GATHER,
                    deps=() if dep is None else (dep,),
                    label=Label.AG,
                    label_arg=step,
                )
            for pos in range(p):
                chunk = ring * p + (pos - step) % p
                rank, peer = order[pos], order[(pos - 1) % p]
                last_write[(rank, chunk)] = plan.add(
                    rank=rank,
                    kind=RECV,
                    chunk=chunk,
                    peer=peer,
                    nbytes=sizes[chunk],
                    lane=ring,
                    tree=ring,
                    tb=ring,
                    phase=Phase.ALL_GATHER,
                    label=Label.AG_RECV,
                    label_arg=step,
                )
    return stamp_origin(plan, f"builder:{plan.algorithm}")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def build_halving_doubling_plan(nnodes: int, nbytes: float) -> Plan:
    """Recursive halving-doubling AllReduce plan.

    Per step every rank sends half its active vector to its XOR partner
    as one aggregated framed message (``chunk_set``), then reduces the
    incoming half; all-gather reverses the exchanges with overwrites —
    the same program :mod:`repro.collectives.halving_doubling` models.
    Incoming chunks are accumulated in ascending chunk-id order within
    each step, and rank ``r`` ends reduce-scatter owning chunk ``r``.
    """
    if nnodes < 2 or not _is_power_of_two(nnodes):
        raise ConfigError(
            "halving-doubling requires a power-of-two node count"
        )
    steps = nnodes.bit_length() - 1
    sizes = split_bytes(nbytes, nnodes)
    plan = Plan(
        algorithm="halving_doubling",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=tuple(sizes),
        chunk_offsets=tuple(chunk_offsets(sizes)),
        ntrees=1,
    )

    active: list[set[int]] = [set(range(nnodes)) for _ in range(nnodes)]
    last_incoming: list[int | None] = [None] * nnodes
    last_send: list[int | None] = [None] * nnodes

    def emit_sends(
        chunk_sets: dict[int, set[int]], phase: Phase, step: int
    ) -> None:
        label = Label.HD_RS if phase == Phase.REDUCE_SCATTER else Label.HD_AG
        for rank in range(nnodes):
            chunks = sorted(chunk_sets[rank])
            partner = rank ^ (1 << step)
            deps = tuple(sorted(
                {d for d in (last_incoming[rank], last_send[rank])
                 if d is not None}
            ))
            last_send[rank] = plan.add(
                rank=rank,
                kind=SEND,
                chunk=min(chunks),
                chunk_set=chunks,
                peer=partner,
                nbytes=sum(sizes[c] for c in chunks),
                tb=0,
                phase=phase,
                deps=deps,
                label=label,
                label_arg=step,
            )

    for step in range(steps):
        bit = 1 << step
        keep = {
            rank: {c for c in active[rank] if (c & bit) == (rank & bit)}
            for rank in range(nnodes)
        }
        send_sets = {r: active[r] - keep[r] for r in range(nnodes)}
        emit_sends(send_sets, Phase.REDUCE_SCATTER, step)
        for rank in range(nnodes):
            partner = rank ^ bit
            incoming = sorted(send_sets[partner])
            last_incoming[rank] = plan.add(
                rank=rank,
                kind=REDUCE,
                chunk=min(incoming),
                chunk_set=incoming,
                peer=partner,
                nbytes=sum(sizes[c] for c in incoming),
                tb=0,
                phase=Phase.REDUCE_SCATTER,
                label=Label.HD_RS_ACC,
                label_arg=step,
            )
            active[rank] = keep[rank]

    owned: list[set[int]] = [set(active[r]) for r in range(nnodes)]
    for step in reversed(range(steps)):
        bit = 1 << step
        emit_sends(
            {r: owned[r] for r in range(nnodes)}, Phase.ALL_GATHER, step
        )
        new_owned = [set(s) for s in owned]
        for rank in range(nnodes):
            partner = rank ^ bit
            incoming = sorted(owned[partner])
            last_incoming[rank] = plan.add(
                rank=rank,
                kind=RECV,
                chunk=min(incoming),
                chunk_set=incoming,
                peer=partner,
                nbytes=sum(sizes[c] for c in incoming),
                tb=0,
                phase=Phase.ALL_GATHER,
                label=Label.HD_AG_RECV,
                label_arg=step,
            )
            new_owned[rank] |= owned[partner]
        owned = new_owned
    return stamp_origin(plan, f"builder:{plan.algorithm}")


#: name -> builder taking (nnodes, nbytes, **kwargs); used by the CLI
#: and the round-trip tests.
BUILDERS = {
    "ring": build_ring_plan,
    "tree": build_tree_plan,
    "double_tree": build_double_tree_plan,
    "halving_doubling": build_halving_doubling_plan,
}


def build_plan(algorithm: str, nnodes: int, nbytes: float, **kwargs) -> Plan:
    """Build a named plan; ``algorithm`` is a :data:`BUILDERS` key."""
    try:
        builder = BUILDERS[algorithm]
    except KeyError:
        raise ConfigError(
            f"unknown plan algorithm {algorithm!r}; "
            f"choose from {sorted(BUILDERS)}"
        ) from None
    return builder(nnodes, nbytes, **kwargs)
