"""Extension — degraded continuation vs restart-from-checkpoint.

After a GPU crash the job has two ways forward: re-embed the double tree
over the 7 survivors and keep training at the degraded collective rate,
or burn a fixed restart overhead (replacement GPU spin-up, weight
reload, communicator rebuild) plus redo of the work since the last
checkpoint, and then run at the healthy 8-GPU rate.  Which wins depends
on how much work remains: re-embedding costs a per-iteration tax forever,
restarting costs a lump sum once.

For each gradient size this sweep re-embeds for real
(:func:`~repro.topology.tree_search.search_degraded_pair` on the DGX-1
minus one GPU), models both per-iteration rates with the alpha-beta cost
model, and reports the **crossover point**: the remaining-iteration count
above which restart-from-checkpoint overtakes degraded continuation.
Below the crossover (crash near the end of the job) the
:class:`~repro.runtime.recovery.RecoveryPolicy` must pick re-embedding;
above it, restart.  The table asks the policy at
:data:`POLICY_PROBES` times each crossover, so both picks show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.report import render_table
from repro.models.costmodel import (
    CostParams,
    degraded_overlapped_tree_time,
    overlapped_tree_time,
)
from repro.runtime.recovery import RecoveryPolicy
from repro.topology.dgx1 import (
    DETOUR_NODES,
    NVLINK_ALPHA,
    NVLINK_BANDWIDTH,
    dgx1_topology,
)
from repro.topology.tree_search import search_degraded_pair

#: Gradient sizes to sweep (bytes).
DEFAULT_SIZES: tuple[float, ...] = (
    1 * 2**20, 8 * 2**20, 64 * 2**20, 256 * 2**20,
)

#: Default modeled restart overhead (seconds): replacement allocation +
#: checkpoint reload + communicator rebuild.
DEFAULT_RESTART_OVERHEAD = 30.0

#: Remaining-iteration counts the policy is asked at, as multiples of
#: the crossover: well below it (re-embed) and well above it (restart).
POLICY_PROBES: tuple[float, ...] = (0.5, 2.0)


@dataclass(frozen=True)
class RecoveryRow:
    """Degraded-vs-restart economics for one gradient size.

    Attributes:
        nbytes: gradient size in bytes.
        dead_gpu: the crashed GPU the survivors re-embed around.
        detours: detoured edges in the searched 7-rank pair.
        conflicts: channels both surviving trees contend for.
        healthy_us: modeled healthy 8-GPU AllReduce time (us).
        degraded_us: modeled 7-survivor AllReduce time (us).
        slowdown_pct: degraded / healthy - 1 in percent.
        crossover_iterations: remaining iterations above which restart
            beats degraded continuation (``inf`` when the degraded rate
            matches or beats healthy — restart then never wins).
        crossover_stale: the same crossover when the last checkpoint is
            ``lost_iterations`` stale — restart must also redo the lost
            work at the healthy rate, so this is always >= the fresh
            crossover.
        lost_iterations: checkpoint staleness charged in the stale
            columns (iterations since the last committed generation).
        decisions: the cost-based policy's pick at each of
            :data:`POLICY_PROBES` times ``crossover_iterations``
            remaining, with a fresh checkpoint (empty when restart
            never wins).
        decisions_stale: the same around ``crossover_stale``, with the
            stale checkpoint.
    """

    nbytes: float
    dead_gpu: int
    detours: int
    conflicts: int
    healthy_us: float
    degraded_us: float
    slowdown_pct: float
    crossover_iterations: float
    crossover_stale: float
    lost_iterations: int
    decisions: tuple[str, ...]
    decisions_stale: tuple[str, ...]


def crossover_point(
    healthy_s: float,
    degraded_s: float,
    *,
    restart_overhead: float,
    lost_iterations: float = 0.0,
) -> float:
    """Remaining iterations at which both recovery paths cost the same.

    Re-embedding wins while ``remaining * degraded <= overhead +
    (lost + remaining) * healthy``; solving for ``remaining`` gives the
    crossover.  Infinite when the degraded rate is no slower than the
    healthy one.
    """
    gap = degraded_s - healthy_s
    if gap <= 0:
        return math.inf
    return (restart_overhead + lost_iterations * healthy_s) / gap


def run(
    *,
    sizes: tuple[float, ...] = DEFAULT_SIZES,
    dead_gpu: int = 3,
    restart_overhead: float = DEFAULT_RESTART_OVERHEAD,
    lost_iterations: int = 50,
    seed: int = 0,
) -> list[RecoveryRow]:
    """Sweep gradient sizes; locate the degraded-vs-restart crossover.

    Each size is evaluated twice: with a fresh checkpoint (nothing to
    redo) and with one ``lost_iterations`` stale, charging the redo work
    to the restart path the way
    :meth:`~repro.runtime.recovery.RecoveryPolicy.decide` now does.
    """
    params = CostParams(alpha=NVLINK_ALPHA, beta=1.0 / NVLINK_BANDWIDTH)
    embedding = search_degraded_pair(
        dgx1_topology(),
        [dead_gpu],
        detour_preference=DETOUR_NODES,
        synth_fallback=True,
        iterations=1200,
        restarts=3,
        seed=seed,
    )
    policy = RecoveryPolicy(
        params=params, restart_overhead=restart_overhead
    )
    rows: list[RecoveryRow] = []
    for nbytes in sizes:
        healthy = overlapped_tree_time(8, nbytes, params)
        degraded = degraded_overlapped_tree_time(
            embedding.topology.nnodes, nbytes, params,
            detours=embedding.cost.detours,
            conflicts=embedding.cost.conflicts,
        )
        common = dict(
            nnodes_healthy=8,
            nnodes_degraded=embedding.topology.nnodes,
            nbytes=nbytes,
            detours=embedding.cost.detours,
            conflicts=embedding.cost.conflicts,
        )
        crossover = crossover_point(
            healthy, degraded, restart_overhead=restart_overhead
        )
        stale = crossover_point(
            healthy,
            degraded,
            restart_overhead=restart_overhead,
            lost_iterations=lost_iterations,
        )
        rows.append(
            RecoveryRow(
                nbytes=nbytes,
                dead_gpu=dead_gpu,
                detours=embedding.cost.detours,
                conflicts=embedding.cost.conflicts,
                healthy_us=healthy * 1e6,
                degraded_us=degraded * 1e6,
                slowdown_pct=100.0 * (degraded / healthy - 1.0),
                crossover_iterations=crossover,
                crossover_stale=stale,
                lost_iterations=lost_iterations,
                decisions=_policy_picks(policy, crossover, **common),
                decisions_stale=_policy_picks(
                    policy, stale, **common,
                    checkpoint_iteration=0,
                    current_iteration=lost_iterations,
                ),
            )
        )
    return rows


def _policy_picks(
    policy: RecoveryPolicy, crossover: float, **decide_args
) -> tuple[str, ...]:
    """The policy's pick at each :data:`POLICY_PROBES` multiple of
    ``crossover`` remaining iterations."""
    if math.isinf(crossover):
        return ()
    return tuple(
        policy.decide(
            remaining_iterations=round(k * crossover), **decide_args
        ).action
        for k in POLICY_PROBES
    )


def format_table(rows: list[RecoveryRow]) -> str:
    def fmt_crossover(value: float) -> str:
        return "never" if math.isinf(value) else f"{value:.0f} iters"

    stale = rows[0].lost_iterations if rows else 0
    return render_table(
        ["gradient", "healthy (us)", "degraded 7-GPU (us)", "slowdown",
         "restart wins above", f"... ckpt {stale} iters stale",
         "policy @" + ", ".join(f"{k:g}x" for k in POLICY_PROBES),
         "... stale ckpt"],
        [
            (
                f"{r.nbytes / 2**20:.0f} MiB",
                f"{r.healthy_us:.1f}",
                f"{r.degraded_us:.1f}",
                f"{r.slowdown_pct:+.1f}%",
                fmt_crossover(r.crossover_iterations),
                fmt_crossover(r.crossover_stale),
                ", ".join(r.decisions),
                ", ".join(r.decisions_stale),
            )
            for r in rows
        ],
        title=(
            "Extension — survivor re-embedding vs restart-from-checkpoint "
            f"(DGX-1 minus GPU{rows[0].dead_gpu if rows else '?'}, "
            f"restart overhead {DEFAULT_RESTART_OVERHEAD:.0f}s)"
        ),
    )
