"""Automated search for topology-aware double-tree embeddings.

The paper hand-crafts its DGX-1 tree pair so that (a) tree edges map onto
physical NVLinks (at most one detour), and (b) the channels the two trees
share fall on the duplicated links where each tree can get its own lane.
This module automates that construction for arbitrary physical
topologies — the "communication algorithm-architecture co-design"
direction the paper cites.

The search is randomized hill climbing over *labeled tree shapes*: a
candidate is a pair of binary trees over the GPU ids; its cost counts,
in lexicographic priority,

1. tree edges with no physical link and no two-hop detour (infeasible),
2. directed channels both trees use beyond the physical lane supply
   (the conflicts that break the overlapped double tree),
3. tree edges needing a detour (they consume intermediate-GPU SMs),
4. total tree height (pipeline latency).

Moves relabel two nodes inside one tree or re-hang a subtree.  With the
default budget the search reproduces a DGX-1-quality pair in well under
a second and finds conflict-free, detour-free pairs on a crossbar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.topology.base import PhysicalTopology
from repro.topology.logical import BinaryTree, balanced_binary_tree, mirror_tree
from repro.topology.routing import Router


@dataclass(frozen=True)
class PairCost:
    """Cost components of a candidate tree pair (lower is better).

    Attributes:
        infeasible_edges: tree edges with neither a link nor a detour.
        conflicts: directed physical channels demanded by both trees
            beyond the available lane count.
        detours: tree edges requiring an intermediate hop.
        height: summed tree heights.
    """

    infeasible_edges: int
    conflicts: int
    detours: int
    height: int

    def key(self) -> tuple[int, int, int, int]:
        return (self.infeasible_edges, self.conflicts, self.detours,
                self.height)

    def __lt__(self, other: "PairCost") -> bool:
        return self.key() < other.key()


def evaluate_pair(
    first: BinaryTree,
    second: BinaryTree,
    topo: PhysicalTopology,
    router: Router,
) -> PairCost:
    """Score a tree pair against a physical topology."""
    demand: dict[tuple[int, int], int] = {}
    infeasible = 0
    detours = 0
    for tree in (first, second):
        for child, parent in tree.up_edges():
            if topo.has_link(child, parent):
                hops = [(child, parent)]
            else:
                path = router.detour_route(child, parent)
                if path is None:
                    infeasible += 1
                    continue
                detours += 1
                hops = list(zip(path, path[1:]))
            for a, b in hops:
                # Both phases use both directions of every hop.
                demand[(a, b)] = demand.get((a, b), 0) + 1
                demand[(b, a)] = demand.get((b, a), 0) + 1
    conflicts = sum(
        max(0, count - topo.lane_count(u, v))
        for (u, v), count in demand.items()
    )
    return PairCost(
        infeasible_edges=infeasible,
        conflicts=conflicts,
        detours=detours,
        height=first.height() + second.height(),
    )


def _relabel_swap(tree: BinaryTree, a: int, b: int) -> BinaryTree:
    mapping = {n: n for n in tree.nodes}
    mapping[a], mapping[b] = b, a
    return tree.relabel(mapping)


def search_tree_pair(
    topo: PhysicalTopology,
    *,
    router: Router | None = None,
    iterations: int = 2000,
    restarts: int = 4,
    seed: int = 0,
) -> tuple[tuple[BinaryTree, BinaryTree], PairCost]:
    """Hill-climb for a low-cost double-tree embedding on ``topo``.

    Args:
        topo: physical topology (GPUs 0..P-1).
        router: route policy for detour evaluation (defaults to a plain
            router over ``topo``).
        iterations: label-swap attempts per restart.
        restarts: independent random restarts (best pair wins).
        seed: RNG seed — the search is fully deterministic.

    Returns:
        ((tree1, tree2), cost) for the best pair found.

    Raises:
        ConfigError: for trivial topologies (fewer than 2 GPUs), a
            negative ``iterations`` or fewer than one restart.
    """
    if topo.nnodes < 2:
        raise ConfigError("need at least 2 GPUs")
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    router = router or Router(topo)
    rng = random.Random(seed)
    nnodes = topo.nnodes

    best_pair: tuple[BinaryTree, BinaryTree] | None = None
    best_cost: PairCost | None = None

    for restart in range(restarts):
        base = balanced_binary_tree(nnodes)
        # Random initial labelings.
        labels1 = list(range(nnodes))
        labels2 = list(range(nnodes))
        if restart:
            rng.shuffle(labels1)
            rng.shuffle(labels2)
        first = base.relabel(dict(enumerate(labels1)))
        second = mirror_tree(base).relabel(dict(enumerate(labels2)))
        cost = evaluate_pair(first, second, topo, router)
        for _ in range(iterations):
            which = rng.random() < 0.5
            a, b = rng.sample(range(nnodes), 2)
            if which:
                cand1, cand2 = _relabel_swap(first, a, b), second
            else:
                cand1, cand2 = first, _relabel_swap(second, a, b)
            cand_cost = evaluate_pair(cand1, cand2, topo, router)
            if cand_cost.key() <= cost.key():
                first, second, cost = cand1, cand2, cand_cost
        if best_cost is None or cost < best_cost:
            best_pair, best_cost = (first, second), cost

    assert best_pair is not None and best_cost is not None
    best_pair[0].validate()
    best_pair[1].validate()
    return best_pair, best_cost


def survivor_topology(
    topo: PhysicalTopology, dead_gpus: Iterable[int]
) -> tuple[PhysicalTopology, dict[int, int]]:
    """Compact ``topo`` minus ``dead_gpus`` onto dense survivor ranks.

    The functional runtime requires dense GPU ids ``0..P-1``, so after a
    crash the surviving physical GPUs are relabeled to *ranks* in sorted
    physical-id order (the rank reordering Cloud Collectives applies to
    VM reassignment).  Switch nodes survive and are renumbered after the
    last rank.

    Returns:
        ``(compacted, rank_of)`` where ``rank_of`` maps each surviving
        physical GPU id to its dense rank.

    Raises:
        ConfigError: on unknown or duplicate dead GPUs, or when fewer
            than 2 GPUs survive.
    """
    dead = sorted(dead_gpus)
    if len(set(dead)) != len(dead):
        raise ConfigError(f"duplicate dead GPUs in {dead}")
    for gpu in dead:
        if not (0 <= gpu < topo.nnodes):
            raise ConfigError(
                f"dead gpu {gpu} is not a GPU of topology {topo.name!r}"
            )
    survivors = [g for g in topo.gpu_ids() if g not in set(dead)]
    if len(survivors) < 2:
        raise ConfigError(
            f"only {len(survivors)} GPU(s) survive in {topo.name!r}; "
            "need at least 2 to re-embed"
        )
    rank_of = {g: r for r, g in enumerate(survivors)}
    switch_map = {
        s: len(survivors) + i for i, s in enumerate(sorted(topo.switch_ids))
    }
    node_map = {**rank_of, **switch_map}
    compacted = PhysicalTopology(
        nnodes=len(survivors),
        name=f"{topo.name}-survivors{len(survivors)}",
        switch_ids=frozenset(switch_map.values()),
    )
    for spec in topo.links():
        if spec.u in set(dead) or spec.v in set(dead):
            continue
        lane = compacted.lane_count(node_map[spec.u], node_map[spec.v])
        compacted._links[(node_map[spec.u], node_map[spec.v], lane)] = (
            replace(spec, u=node_map[spec.u], v=node_map[spec.v], lane=lane)
        )
    compacted.validate()
    return compacted, rank_of


@dataclass(frozen=True)
class DegradedEmbedding:
    """A double-tree pair re-embedded over the survivors of a crash.

    Trees, detours, and the compacted topology all live in dense *rank*
    space (``0..len(survivors)-1``); ``rank_of``/``gpu_of`` translate
    between ranks and the surviving physical GPU ids.

    Attributes:
        survivors: surviving physical GPU ids, sorted.
        rank_of: physical GPU id -> dense rank.
        gpu_of: dense rank -> physical GPU id.
        topology: the compacted survivor topology (rank space).
        trees: the searched double-tree pair (rank space).
        detour_map: ``(child, parent) -> intermediate`` ranks for tree
            edges with no surviving direct link.
        cost: the pair's :class:`PairCost` on the survivor topology.
        synthesized: True when no feasible pair exists and the
            embedding instead carries a verified synthesized plan —
            ``trees``/``detour_map`` are then the best (still
            infeasible) pair for diagnostics only, and callers must
            execute ``plan`` rather than the hand-written kernels.
        plan: the compiled, verified synthesized plan in rank space
            (None for ordinary embeddings).
        plan_strategy: which synthesis strategy won (``""`` otherwise).
    """

    survivors: tuple[int, ...]
    rank_of: dict[int, int]
    gpu_of: dict[int, int]
    topology: PhysicalTopology
    trees: tuple[BinaryTree, BinaryTree]
    detour_map: dict[tuple[int, int], int]
    cost: PairCost
    synthesized: bool = False
    plan: object | None = None
    plan_strategy: str = ""


def search_degraded_pair(
    topo: PhysicalTopology,
    dead_gpus: Iterable[int],
    *,
    detour_preference: Sequence[int] = (),
    iterations: int = 2000,
    restarts: int = 4,
    seed: int = 0,
    synth_fallback: bool = False,
) -> DegradedEmbedding:
    """Re-embed the double tree over the GPUs surviving ``dead_gpus``.

    This is the recovery half of the search: the crashed GPUs are cut
    out of the physical topology, the survivors are compacted to dense
    ranks, and :func:`search_tree_pair` finds the best feasible pair on
    what is left — the paper's re-embeddability observation (detour
    routes exist because the logical tree is independent of the physical
    wiring) turned into a recover-by-re-planning step.

    Args:
        topo: the *intact* physical topology (physical GPU ids).
        dead_gpus: crashed physical GPU ids.
        detour_preference: preferred detour intermediates, in *physical*
            ids (dead ones are dropped; survivors are translated to
            ranks).
        iterations / restarts / seed: forwarded to the hill climb.
        synth_fallback: when True, an infeasible survivor set does not
            raise — plan synthesis (:mod:`repro.synth`) runs on the
            compacted survivor topology instead and the embedding comes
            back flagged ``synthesized=True`` carrying the verified
            plan.

    Raises:
        ConfigError: on invalid dead GPUs, fewer than 2 survivors, an
            invalid search budget (:func:`search_tree_pair`), or
            (without ``synth_fallback``) when no feasible pair exists
            on the survivor topology (some tree edge has neither a link
            nor a detour).
    """
    dead = set(dead_gpus)
    compacted, rank_of = survivor_topology(topo, dead)
    preference = tuple(
        rank_of[g] for g in detour_preference if g in rank_of
    )
    router = Router(compacted, detour_preference=preference)
    pair, cost = search_tree_pair(
        compacted,
        router=router,
        iterations=iterations,
        restarts=restarts,
        seed=seed,
    )
    if cost.infeasible_edges:
        if synth_fallback:
            # Late import: repro.synth.fallback and repro.synth.search
            # both import this module at top level.
            from repro.synth.fallback import synthesized_embedding

            return synthesized_embedding(
                rank_of=rank_of,
                compacted=compacted,
                pair=pair,
                cost=cost,
                router=router,
                seed=seed,
            )
        raise ConfigError(
            f"no feasible double tree over the survivors of "
            f"{sorted(dead)} in {topo.name!r}: best pair still has "
            f"{cost.infeasible_edges} unroutable edge(s)"
        )
    return DegradedEmbedding(
        survivors=tuple(sorted(rank_of)),
        rank_of=dict(rank_of),
        gpu_of={r: g for g, r in rank_of.items()},
        topology=compacted,
        trees=pair,
        detour_map=detour_map_for(pair, compacted, router),
        cost=cost,
    )


def detour_map_for(
    pair: tuple[BinaryTree, BinaryTree],
    topo: PhysicalTopology,
    router: Router | None = None,
) -> dict[tuple[int, int], int]:
    """The ``(child, parent) -> intermediate`` map a found pair needs
    (consumable by :class:`repro.runtime.allreduce.TreeAllReduceRuntime`).

    Raises:
        ConfigError: if some edge has neither a link nor a detour.
    """
    router = router or Router(topo)
    detours: dict[tuple[int, int], int] = {}
    for tree in pair:
        for child, parent in tree.up_edges():
            if topo.has_link(child, parent):
                continue
            path = router.detour_route(child, parent)
            if path is None:
                raise ConfigError(
                    f"edge {child}->{parent} is infeasible on "
                    f"{topo.name!r}"
                )
            detours[(child, parent)] = path[1]
    return detours
