"""The plan-IR autotuner: per-size winners over algorithm x pipeline.

``core.autotune`` picks among the *analytic* collective models; this
module tunes over actual plan IR.  For every message size it sweeps

- the hand-written builders (identity ring, balanced tree, Sanders
  double tree, halving-doubling where the node count allows), and
- every synthesized candidate from :mod:`repro.synth.search`,

each crossed with the pipeline chunk factor, scores every survivor of
the compile -> verify gate with ``simulate_plan``, and
records the per-size winner — the NCCL posture of picking one-shot vs
two-shot vs hcm by byte thresholds, applied to whole plans.

Before any DES run, every compiled candidate gets a certified α-β
lower bound from :mod:`repro.analyze.contention`; candidates whose
bound already exceeds the best simulated time of their source are
rejected without simulation.  The bound is sound, so pruning never
changes a winner — see :func:`tune`.

The topology-dependent searches (tree pair, forest packing, Hamiltonian
cycle) run once per topology and are reused across sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

from repro.analyze.contention import static_lower_bound
from repro.errors import SynthesisError
from repro.experiments.report import render_table
from repro.plan.builders import (
    build_double_tree_plan,
    build_halving_doubling_plan,
    build_ring_plan,
    build_tree_plan,
)
from repro.plan.ir import Plan
from repro.synth.search import (
    SynthStructures,
    compile_candidate,
    score_candidate,
    search_structures,
    synthesize_raws,
)
from repro.topology.base import PhysicalTopology
from repro.topology.routing import Router

__all__ = [
    "SWEEP_SIZES",
    "SMOKE_SIZES",
    "SweepEntry",
    "SizeWinner",
    "TuneResult",
    "tune",
    "format_tune_table",
]

#: Default message sizes swept by ``repro synth tune`` (bytes).
SWEEP_SIZES: tuple[float, ...] = (
    64e3, 1e6, 4e6, 16e6, 64e6,
)

#: The CI smoke subset.
SMOKE_SIZES: tuple[float, ...] = (64e3, 4e6)

#: Relative slack on the prune test ``lb > incumbent * (1 + margin)``.
#: Keeps exact ties (LB equal to the incumbent's simulated time, which
#: happens when the bound is tight) on the simulated path, so the
#: ``(time, source, strategy, pipeline)`` tie-break — and therefore
#: every winner — is byte-identical with pruning on or off.
PRUNE_MARGIN: float = 1e-6


@dataclass(frozen=True)
class SweepEntry:
    """One gated (plan, score) point of the sweep.

    Attributes:
        strategy: generator name (``double_tree``, ``forest2``, ...,
            or a hand-written builder name).
        source: ``"synth"`` or ``"builder"``.
        pipeline: pipeline chunk factor.
        time: simulated completion time (seconds).
        nops: compiled op count.
        plan: the compiled plan itself.
    """

    strategy: str
    source: str
    pipeline: int
    time: float
    nops: int
    plan: Plan


@dataclass(frozen=True)
class SizeWinner:
    """Per-size outcome: overall winner plus the best of each source."""

    nbytes: float
    best: SweepEntry
    best_builder: SweepEntry | None
    best_synth: SweepEntry | None
    entries: tuple[SweepEntry, ...]


@dataclass(frozen=True)
class TuneResult:
    """The tuner's output for one topology.

    ``choose(nbytes)`` picks the winner of the nearest swept size by
    byte threshold: the cut between two adjacent swept sizes is their
    geometric midpoint, mirroring NCCL's threshold tables.
    """

    topology_name: str
    nnodes: int
    winners: tuple[SizeWinner, ...]
    wall_time: float
    #: Candidates that compiled and verified (prune-gate population).
    candidates: int = 0
    #: Candidates actually scored by the DES.
    simulated: int = 0
    #: Candidates the static lower bound rejected without simulation.
    pruned: int = 0

    def choose(self, nbytes: float) -> SizeWinner:
        if not self.winners:
            raise SynthesisError("empty tune result")
        best = self.winners[0]
        for winner in self.winners[1:]:
            cut = (best.nbytes * winner.nbytes) ** 0.5
            if nbytes >= cut:
                best = winner
        return best


def _builder_raws(
    nnodes: int, nbytes: float, *, nchunks: int
) -> list[tuple[str, Plan]]:
    raws = [
        ("ring", build_ring_plan(nnodes, nbytes)),
        ("tree", build_tree_plan(nnodes, nbytes, nchunks=nchunks)),
        (
            "double_tree",
            build_double_tree_plan(
                nnodes, nbytes, nchunks=nchunks, overlapped=True
            ),
        ),
    ]
    if nnodes >= 2 and nnodes & (nnodes - 1) == 0:
        raws.append(
            ("halving_doubling", build_halving_doubling_plan(nnodes, nbytes))
        )
    return raws


def tune(
    topo: PhysicalTopology,
    *,
    sizes: Sequence[float] = SWEEP_SIZES,
    nchunks: int = 4,
    pipelines: Sequence[int] = (1, 2),
    seed: int = 0,
    iterations: int = 800,
    restarts: int = 3,
    structures: SynthStructures | None = None,
    prune: bool = True,
) -> TuneResult:
    """Sweep, score, and pick winners for every message size.

    With ``prune`` (the default) every candidate is compiled and
    verified, ranked by its static α-β lower bound
    (:func:`repro.analyze.contention.static_lower_bound`), and
    simulated in ascending-bound order; a candidate whose bound already
    exceeds its source's best *simulated* time is discarded without a
    DES run.  Because the bound is certified (``lb <= simulated
    time``), a pruned candidate can never be its source's winner, so
    winners and byte thresholds are identical with pruning off — only
    the wall time changes.

    Raises:
        SynthesisError: when some size ends with no gated synthesized
            candidate at all (the store refuses to cache such a size).
    """
    t0 = perf_counter()
    s = structures or search_structures(
        topo, seed=seed, iterations=iterations, restarts=restarts
    )
    eff = s.topology
    router = Router(eff)
    winners: list[SizeWinner] = []
    n_candidates = n_simulated = n_pruned = 0
    for nbytes in sizes:
        raws: list[tuple[str, str, Plan]] = [
            ("synth", name, raw)
            for name, raw in synthesize_raws(s, nbytes, nchunks=nchunks)
        ] + [
            ("builder", name, raw)
            for name, raw in _builder_raws(eff.nnodes, nbytes, nchunks=nchunks)
        ]
        # Cheap half of the gate: compile + verify, then rank by the
        # certified lower bound so likely winners simulate first and
        # dominated candidates meet an incumbent they cannot beat.
        compiled: list[tuple[float, str, str, int, Plan, tuple[str, ...]]] = []
        for source, name, raw in raws:
            for factor in pipelines:
                prepared = compile_candidate(
                    raw, eff, router=router, pipeline=factor
                )
                if prepared is None:
                    continue
                plan, notes = prepared
                lb = static_lower_bound(plan, eff, router=router)
                compiled.append((lb, source, name, factor, plan, notes))
        compiled.sort(key=lambda c: (c[0], c[1], c[2], c[3]))
        n_candidates += len(compiled)

        entries: list[SweepEntry] = []
        incumbent = {"builder": float("inf"), "synth": float("inf")}
        for lb, source, name, factor, plan, notes in compiled:
            if prune and lb > incumbent[source] * (1.0 + PRUNE_MARGIN):
                n_pruned += 1
                continue
            n_simulated += 1
            scored = score_candidate(
                plan, eff, strategy=name, router=router, pipeline=factor,
                notes=notes,
            )
            if scored is None:
                continue
            incumbent[source] = min(incumbent[source], scored.time)
            entries.append(SweepEntry(
                strategy=name,
                source=source,
                pipeline=factor,
                time=scored.time,
                nops=len(scored.plan.ops),
                plan=scored.plan,
            ))
        if not entries:
            raise SynthesisError(
                f"no plan passed the gate on {topo.name!r} at "
                f"{nbytes:.0f} bytes"
            )
        entries.sort(key=lambda e: (e.time, e.source, e.strategy, e.pipeline))
        synths = [e for e in entries if e.source == "synth"]
        builders = [e for e in entries if e.source == "builder"]
        if not synths:
            raise SynthesisError(
                f"no synthesized plan passed the gate on {topo.name!r} "
                f"at {nbytes:.0f} bytes"
            )
        winners.append(SizeWinner(
            nbytes=nbytes,
            best=entries[0],
            best_builder=builders[0] if builders else None,
            best_synth=synths[0],
            entries=tuple(entries),
        ))
    return TuneResult(
        topology_name=topo.name,
        nnodes=eff.nnodes,
        winners=tuple(winners),
        wall_time=perf_counter() - t0,
        candidates=n_candidates,
        simulated=n_simulated,
        pruned=n_pruned,
    )


def format_tune_table(result: TuneResult) -> str:
    """Human-readable winner table for ``repro synth tune``."""
    rows = []
    for winner in result.winners:
        synth = winner.best_synth
        builder = winner.best_builder
        ratio = (
            synth.time / builder.time if synth and builder else float("nan")
        )
        rows.append([
            f"{winner.nbytes / 1e6:.3f}",
            f"{winner.best.strategy} ({winner.best.source})",
            f"x{winner.best.pipeline}",
            f"{winner.best.time * 1e6:.1f}",
            builder.strategy if builder else "-",
            f"{builder.time * 1e6:.1f}" if builder else "-",
            synth.strategy if synth else "-",
            f"{synth.time * 1e6:.1f}" if synth else "-",
            f"{ratio:.3f}",
        ])
    header = [
        "MB", "winner", "pipe", "us", "best builder", "us",
        "best synth", "us", "synth/builder",
    ]
    title = (
        f"tuned plans on {result.topology_name} "
        f"({result.nnodes} ranks, {result.wall_time:.2f}s)"
    )
    if result.candidates:
        title += (
            f" — {result.simulated}/{result.candidates} simulated, "
            f"{result.pruned} pruned by static bound"
        )
    return render_table(header, rows, title=title)
