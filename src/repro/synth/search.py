"""Search-based plan construction from an arbitrary physical topology.

The hand-written builders in :mod:`repro.plan.builders` encode fixed
logical shapes (identity ring, balanced tree, Sanders pair, hypercube)
and rely on :func:`repro.plan.passes.compile_plan` to patch over
whatever physical links are missing.  This module inverts that: the
*topology* drives the shape.

Strategies (each emits plain :class:`~repro.plan.ir.Plan` IR):

- ``double_tree``: hill-climbed double-tree embedding via
  :func:`repro.topology.tree_search.search_tree_pair` — the paper's
  co-design search, reused as a generator.
- ``forest<k>``: greedy ForestColl-style packing of ``k`` binary
  spanning trees, preferring edges with spare lane capacity so the
  trees come out (near-)edge-disjoint; each tree carries its own chunk
  range, reduce up + broadcast down.
- ``ring``: a Hamiltonian cycle extracted from the link graph by
  seeded backtracking (falls back to a greedy link-preferring order on
  non-Hamiltonian fabrics).
- ``hypercube``: recursive halving-doubling, kept only when every XOR
  partner pair is physically linked — the hypercube embeds.

Every candidate is gated before it is returned: route-legalized
(:func:`compile_plan`), statically verified (:func:`verify_plan` with
physical checks, which includes the ordering proof: FIFO per wire and
reduce before broadcast on the plan's happens-before graph), then
simulated (:func:`simulate_plan`) for its score only.  A candidate a
stage rejects with a :class:`~repro.errors.ReproError` is dropped; any
other exception is a bug and propagates.  :func:`synthesize_plan`
raises :class:`~repro.errors.SynthesisError` only if *nothing*
survives.

Switch fabrics (NVSwitch, leaf/spine) are handled by collapsing to an
*effective GPU topology* first: relays on switch ranks are not
representable in the IR, so each switch-crossing GPU pair becomes a
direct effective link with the path's summed alpha and bottleneck beta.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.collectives.chunking import chunk_offsets, split_bytes
from repro.errors import ReproError, SynthesisError
from repro.plan.builders import (
    _emit_tree,
    build_double_tree_plan,
    build_halving_doubling_plan,
    build_ring_plan,
)
from repro.plan.ir import Plan, stamp_origin
from repro.plan.lowering import simulate_plan
from repro.plan.passes import compile_plan
from repro.plan.verifier import verify_plan
from repro.topology.base import PhysicalTopology
from repro.topology.logical import BinaryTree
from repro.topology.routing import Router
from repro.topology.tree_search import search_tree_pair

__all__ = [
    "SynthCandidate",
    "build_forest_plan",
    "compile_candidate",
    "effective_gpu_topology",
    "gate_candidate",
    "hamiltonian_cycle",
    "pack_binary_forest",
    "score_candidate",
    "synthesize_candidates",
    "synthesize_plan",
    "synthesize_raws",
]


def effective_gpu_topology(topo: PhysicalTopology) -> PhysicalTopology:
    """Collapse switch hops into direct GPU-GPU effective links.

    For a topology without switches this is the identity.  Otherwise
    every GPU pair reachable through switch nodes gets one effective
    lane whose alpha is the path's summed link alphas and whose beta is
    the path's bottleneck (max) beta; existing direct GPU-GPU links are
    copied through unchanged.  The result is what the tree/ring/forest
    searches and the verifier's physical checks operate on.
    """
    if not topo.switch_ids:
        return topo
    eff = PhysicalTopology(
        nnodes=topo.nnodes, name=f"{topo.name}-gpu-effective"
    )
    for spec in topo.links():
        if spec.u in topo.switch_ids or spec.v in topo.switch_ids:
            continue
        eff._links[(spec.u, spec.v, spec.lane)] = spec
    for u in topo.gpu_ids():
        for v, (alpha, beta) in _switch_paths(topo, u).items():
            if v <= u or eff.has_link(u, v):
                continue
            eff.add_link(u, v, alpha=alpha, beta=beta)
    eff.validate()
    return eff


def _switch_paths(
    topo: PhysicalTopology, src: int
) -> dict[int, tuple[float, float]]:
    """GPU -> (summed alpha, max beta) over switch-only BFS paths."""
    best: dict[int, tuple[float, float]] = {}
    seen = {src}
    queue: deque[tuple[int, float, float]] = deque([(src, 0.0, 0.0)])
    while queue:
        node, alpha, beta = queue.popleft()
        for nxt in topo.neighbors(node):
            if nxt in seen:
                continue
            spec = topo.link(node, nxt)
            a, b = alpha + spec.alpha, max(beta, spec.beta)
            seen.add(nxt)
            if nxt in topo.switch_ids:
                queue.append((nxt, a, b))
            elif node in topo.switch_ids:
                # GPU endpoint reached through at least one switch hop;
                # BFS order makes this the fewest-hop effective path.
                best[nxt] = (a, b)
    return best


# -- spanning-forest packing ---------------------------------------------


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def pack_binary_forest(
    topo: PhysicalTopology,
    *,
    ntrees: int = 2,
    seed: int = 0,
    attempts: int = 8,
) -> list[BinaryTree]:
    """Greedily pack ``ntrees`` binary spanning trees onto ``topo``.

    Randomized Prim growth with a degree cap of 3 (parent + at most two
    children keeps every tree binary).  Each undirected physical edge
    starts with ``lane_count`` capacity; a tree edge consumes one unit,
    and the frontier prefers edges with spare capacity, so with enough
    lanes the packed trees are edge-disjoint (ForestColl's goal) and
    otherwise they share as little as possible.  Unlinked hops are used
    only as a last resort (they legalize to PCIe or a detour later).

    Returns the best forest found over ``attempts`` seeded retries —
    possibly fewer than ``ntrees`` trees on very sparse fabrics, but
    always at least one.
    """
    rng = random.Random(seed)
    best: list[BinaryTree] | None = None
    best_score: tuple[int, int] | None = None
    for _ in range(max(1, attempts)):
        cap: dict[tuple[int, int], int] = {}
        for spec in topo.links():
            if spec.u in topo.switch_ids or spec.v in topo.switch_ids:
                continue
            key = _edge(spec.u, spec.v)
            cap[key] = max(cap.get(key, 0), topo.lane_count(spec.u, spec.v))
        trees: list[BinaryTree] = []
        unlinked = 0
        for _ in range(ntrees):
            grown = _grow_tree(topo, cap, rng)
            if grown is None:
                break
            tree, used_unlinked = grown
            unlinked += used_unlinked
            for child, parent in tree.up_edges():
                key = _edge(child, parent)
                cap[key] = cap.get(key, 0) - 1
            trees.append(tree)
        if not trees:
            continue
        # More trees first, then fewer unlinked hops.
        score = (-len(trees), unlinked)
        if best_score is None or score < best_score:
            best, best_score = trees, score
    if not best:
        raise SynthesisError(
            f"could not grow a single spanning tree on {topo.name!r}"
        )
    for tree in best:
        tree.validate()
    return best


def _grow_tree(
    topo: PhysicalTopology,
    cap: dict[tuple[int, int], int],
    rng: random.Random,
) -> tuple[BinaryTree, int] | None:
    """One randomized-Prim binary spanning tree; returns the tree and
    how many of its edges have no physical link at all."""
    n = topo.nnodes
    root = rng.randrange(n)
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {root: []}
    visited = {root}
    unlinked = 0
    while len(visited) < n:
        frontier: list[tuple[tuple[int, int, float], int, int]] = []
        for u in visited:
            if len(children[u]) >= 2:
                continue
            for v in range(n):
                if v in visited:
                    continue
                linked = topo.has_link(u, v) or topo.has_link(v, u)
                spare = cap.get(_edge(u, v), 0)
                # Rank: physically linked first, then spare capacity,
                # then a seeded random tiebreak.
                rank = (0 if linked else 1, -spare, rng.random())
                frontier.append((rank, u, v))
        if not frontier:
            return None
        _, u, v = min(frontier)
        if not (topo.has_link(u, v) or topo.has_link(v, u)):
            unlinked += 1
        parent[v] = u
        children[u].append(v)
        children[v] = []
        visited.add(v)
    tree = BinaryTree(
        root=root,
        parent=parent,
        children={node: tuple(kids) for node, kids in children.items()},
    )
    return tree, unlinked


def build_forest_plan(
    nbytes: float,
    trees: Sequence[BinaryTree],
    *,
    nchunks_per_tree: int = 1,
    overlapped: bool = True,
) -> Plan:
    """Emit a k-tree AllReduce plan (reduce up + broadcast down per
    tree); generalizes :func:`repro.plan.builders.build_double_tree_plan`
    to any packed forest.  Tree ``t`` carries global chunks
    ``[t * nchunks_per_tree, (t+1) * nchunks_per_tree)``."""
    if not trees:
        raise SynthesisError("forest plan needs at least one tree")
    k = len(trees)
    nnodes = trees[0].nnodes
    sizes = split_bytes(nbytes, k * nchunks_per_tree)
    plan = Plan(
        algorithm=f"synth_forest_x{k}",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=tuple(sizes),
        chunk_offsets=tuple(chunk_offsets(sizes)),
        ntrees=k,
    )
    for t, tree in enumerate(trees):
        _emit_tree(
            plan,
            tree,
            chunk_ids=range(t * nchunks_per_tree, (t + 1) * nchunks_per_tree),
            sizes=sizes,
            tree_index=t,
            overlapped=overlapped,
        )
    return stamp_origin(plan, f"synth:{plan.algorithm}")


# -- Hamiltonian ring extraction -----------------------------------------


def hamiltonian_cycle(
    topo: PhysicalTopology, *, seed: int = 0
) -> list[int] | None:
    """A Hamiltonian cycle over the GPU link graph, or None.

    Seeded backtracking bounded by 50,000 node expansions; the
    returned order starts at GPU 0 and every consecutive pair
    (including the wrap-around) shares a physical link.
    """
    n = topo.nnodes
    if n < 3:
        return None
    rng = random.Random(seed)
    adj = {
        u: [v for v in topo.neighbors(u) if v < n] for u in range(n)
    }
    path = [0]
    used = {0}
    left = [50000]

    def extend() -> bool:
        if left[0] <= 0:
            return False
        left[0] -= 1
        u = path[-1]
        if len(path) == n:
            return topo.has_link(u, 0)
        nbrs = list(adj[u])
        rng.shuffle(nbrs)
        for v in nbrs:
            if v in used:
                continue
            path.append(v)
            used.add(v)
            if extend():
                return True
            path.pop()
            used.remove(v)
        return False

    return list(path) if extend() else None


def _greedy_ring_order(topo: PhysicalTopology, *, seed: int = 0) -> list[int]:
    """Nearest-neighbor fallback order: always returns a permutation,
    preferring linked hops (unlinked ones legalize to PCIe later)."""
    rng = random.Random(seed)
    order = [0]
    remaining = set(range(1, topo.nnodes))
    while remaining:
        u = order[-1]
        ranked = [
            (0 if topo.has_link(u, v) else 1, rng.random(), v)
            for v in remaining
        ]
        v = min(ranked)[2]
        order.append(v)
        remaining.discard(v)
    return order


def _hypercube_embeds(topo: PhysicalTopology) -> bool:
    """True when every XOR-partner pair of the halving-doubling
    exchange is physically linked (the hypercube maps onto the fabric)."""
    n = topo.nnodes
    if n < 2 or n & (n - 1):
        return False
    for step in range(n.bit_length() - 1):
        for rank in range(n):
            partner = rank ^ (1 << step)
            if rank < partner and not topo.has_link(rank, partner):
                return False
    return True


# -- the gate -------------------------------------------------------------


@dataclass(frozen=True)
class SynthCandidate:
    """One synthesized plan that passed the full gate.

    Attributes:
        strategy: generator name (``double_tree``, ``forest2``, ...).
        plan: the compiled (legalized) plan.
        time: simulated AllReduce completion time on the topology.
        pipeline: pipeline chunk factor the plan was compiled with.
        notes: compile-pass diagnostics (detours, PCIe fallbacks, ...).
    """

    strategy: str
    plan: Plan
    time: float
    pipeline: int = 1
    notes: tuple[str, ...] = ()


def compile_candidate(
    raw: Plan,
    topo: PhysicalTopology,
    *,
    router: Router | None = None,
    pipeline: int = 1,
) -> tuple[Plan, tuple[str, ...]] | None:
    """Compile and statically verify one raw plan.

    The cheap half of the gate, and the whole of its correctness check:
    after it a candidate can be *ranked* (the static lower bound needs
    only the compiled plan), but not yet scored.  Returns ``(compiled,
    notes)`` or None on rejection.
    """
    try:
        compiled, reports = compile_plan(
            raw, topo, router=router, pipeline=pipeline
        )
    except ReproError:
        return None
    report = verify_plan(compiled, topo=topo, raise_on_error=False)
    if not report.ok:
        return None
    return compiled, tuple(reports.notes)


def score_candidate(
    compiled: Plan,
    topo: PhysicalTopology,
    *,
    strategy: str,
    router: Router | None = None,
    pipeline: int = 1,
    notes: tuple[str, ...] = (),
) -> SynthCandidate | None:
    """Simulate one verified plan for its score — the expensive half of
    the gate.  Returns None when the DES rejects it."""
    try:
        outcome = simulate_plan(compiled, topo=topo, router=router)
    except ReproError:
        return None
    return SynthCandidate(
        strategy=strategy,
        plan=compiled,
        time=outcome.total_time,
        pipeline=pipeline,
        notes=notes,
    )


def gate_candidate(
    raw: Plan,
    topo: PhysicalTopology,
    *,
    strategy: str,
    router: Router | None = None,
    pipeline: int = 1,
) -> SynthCandidate | None:
    """Compile, verify, and simulate one raw plan.

    Returns None when any stage rejects it — synthesis never emits a
    plan the safety net has not accepted.
    """
    prepared = compile_candidate(raw, topo, router=router, pipeline=pipeline)
    if prepared is None:
        return None
    compiled, notes = prepared
    return score_candidate(
        compiled, topo, strategy=strategy, router=router,
        pipeline=pipeline, notes=notes,
    )


@dataclass(frozen=True)
class SynthStructures:
    """Topology-dependent (size-independent) search results, reusable
    across message sizes by the tuner."""

    topology: PhysicalTopology
    pair: tuple[BinaryTree, BinaryTree] | None
    forests: tuple[tuple[BinaryTree, ...], ...]
    ring_order: tuple[int, ...]
    ring_is_hamiltonian: bool
    hypercube: bool


def search_structures(
    topo: PhysicalTopology,
    *,
    seed: int = 0,
    iterations: int = 800,
    restarts: int = 3,
) -> SynthStructures:
    """Run the size-independent searches once for a topology."""
    eff = effective_gpu_topology(topo)
    router = Router(eff)
    pair: tuple[BinaryTree, BinaryTree] | None
    try:
        pair, _cost = search_tree_pair(
            eff, router=router, iterations=iterations, restarts=restarts,
            seed=seed,
        )
    except ReproError:
        pair = None
    forests: list[tuple[BinaryTree, ...]] = []
    for k in (1, 2):
        try:
            forests.append(
                tuple(pack_binary_forest(eff, ntrees=k, seed=seed + k))
            )
        except SynthesisError:
            continue
    cycle = hamiltonian_cycle(eff, seed=seed)
    order = cycle if cycle is not None else _greedy_ring_order(eff, seed=seed)
    return SynthStructures(
        topology=eff,
        pair=pair,
        forests=tuple(forests),
        ring_order=tuple(order),
        ring_is_hamiltonian=cycle is not None,
        hypercube=_hypercube_embeds(eff),
    )


def synthesize_raws(
    structures: SynthStructures,
    nbytes: float,
    *,
    nchunks: int = 4,
) -> list[tuple[str, Plan]]:
    """Raw (uncompiled) synthesized candidates for one message size.

    The strategy enumeration shared by :func:`synthesize_candidates`
    (which gates every entry here) and the tuner's pruning path (which
    compiles first and lets the static lower bound decide what to
    simulate)."""
    s = structures
    n = s.topology.nnodes
    raws: list[tuple[str, Plan]] = []
    if s.pair is not None:
        raws.append((
            "double_tree",
            build_double_tree_plan(
                n, nbytes, nchunks=nchunks, trees=s.pair, overlapped=True
            ),
        ))
    for forest in s.forests:
        raws.append((
            f"forest{len(forest)}",
            build_forest_plan(
                nbytes, forest, nchunks_per_tree=nchunks, overlapped=True
            ),
        ))
    ring_tag = "ring" if s.ring_is_hamiltonian else "ring_greedy"
    raws.append((ring_tag, build_ring_plan(n, nbytes, order=s.ring_order)))
    if s.hypercube:
        raws.append(("hypercube", build_halving_doubling_plan(n, nbytes)))
    return raws


def synthesize_candidates(
    topo: PhysicalTopology,
    nbytes: float,
    *,
    nchunks: int = 4,
    pipelines: Sequence[int] = (1,),
    seed: int = 0,
    iterations: int = 800,
    restarts: int = 3,
    structures: SynthStructures | None = None,
) -> list[SynthCandidate]:
    """All gated candidates for one message size, best (fastest) first.

    ``structures`` lets the tuner reuse one topology search across many
    sizes; when omitted the searches run here.
    """
    s = structures or search_structures(
        topo, seed=seed, iterations=iterations, restarts=restarts
    )
    eff = s.topology
    router = Router(eff)
    raws = synthesize_raws(s, nbytes, nchunks=nchunks)
    out: list[SynthCandidate] = []
    for strategy, raw in raws:
        for factor in pipelines:
            cand = gate_candidate(
                raw, eff, strategy=strategy, router=router, pipeline=factor
            )
            if cand is not None:
                out.append(cand)
    out.sort(key=lambda c: (c.time, c.strategy, c.pipeline))
    return out


def synthesize_plan(
    topo: PhysicalTopology,
    nbytes: float,
    *,
    nchunks: int = 4,
    pipelines: Sequence[int] = (1,),
    seed: int = 0,
    iterations: int = 800,
    restarts: int = 3,
    structures: SynthStructures | None = None,
) -> SynthCandidate:
    """The best gated candidate for one message size.

    Raises:
        SynthesisError: when no candidate survives the gate (in
            practice only on malformed topologies — the PCIe fallback
            in legalization makes even a disconnected-NVLink fabric
            routable).
    """
    candidates = synthesize_candidates(
        topo, nbytes, nchunks=nchunks, pipelines=pipelines, seed=seed,
        iterations=iterations, restarts=restarts, structures=structures,
    )
    if not candidates:
        raise SynthesisError(
            f"no synthesized plan passed the gate on {topo.name!r} "
            f"at {nbytes:.0f} bytes"
        )
    return candidates[0]
