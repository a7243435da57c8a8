"""Synthesis fallback for infeasible survivor sets.

``search_degraded_pair`` raises :class:`~repro.errors.ConfigError` when
no feasible double-tree pair exists over a crash's survivors — e.g. a
DGX-1 where every NVLink of one survivor died with its quad.  With the
fallback enabled, those survivor sets get a *verified synthesized plan*
instead: synthesis runs on the compacted survivor topology (legalization
falls back to PCIe for the NVLink-orphaned ranks), and the returned
:class:`~repro.topology.tree_search.DegradedEmbedding` carries the plan
with ``synthesized=True`` so callers can tell the hand-written tree
kernels do not apply.
"""

from __future__ import annotations

from repro.errors import SynthesisError
from repro.synth.search import synthesize_plan
from repro.topology.base import PhysicalTopology
from repro.topology.logical import BinaryTree
from repro.topology.routing import Router
from repro.topology.tree_search import DegradedEmbedding, PairCost

__all__ = ["synthesized_embedding", "FALLBACK_NBYTES"]

#: Nominal message size the fallback tunes with.  Execution through
#: :class:`repro.plan.interpreter.PlanInterpreter` re-derives the
#: element layout from the actual buffer, so this only steers the
#: simulated score used to pick among candidate shapes.
FALLBACK_NBYTES = 4e6


def synthesized_embedding(
    *,
    rank_of: dict[int, int],
    compacted: PhysicalTopology,
    pair: tuple[BinaryTree, BinaryTree],
    cost: PairCost,
    router: Router,
    seed: int = 0,
) -> DegradedEmbedding:
    """Build the flagged embedding for an infeasible survivor set.

    The best (still infeasible) tree pair and its cost are kept for
    diagnostics; the detour map covers only the routable edges.  The
    synthesized plan is fully gated (compile -> verify -> simulate ->
    ordering oracle) before it lands in the embedding.

    Raises:
        SynthesisError: when synthesis itself finds no gated plan.
    """
    candidate = synthesize_plan(
        compacted, FALLBACK_NBYTES, nchunks=2, pipelines=(1,), seed=seed
    )
    detours: dict[tuple[int, int], int] = {}
    for tree in pair:
        for child, parent in tree.up_edges():
            if compacted.has_link(child, parent):
                continue
            path = router.detour_route(child, parent)
            if path is not None:
                detours[(child, parent)] = path[1]
    return DegradedEmbedding(
        survivors=tuple(sorted(rank_of)),
        rank_of=dict(rank_of),
        gpu_of={r: g for g, r in rank_of.items()},
        topology=compacted,
        trees=pair,
        detour_map=detours,
        cost=cost,
        synthesized=True,
        plan=candidate.plan,
        plan_strategy=candidate.strategy,
    )
