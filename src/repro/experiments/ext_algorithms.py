"""Extension study — four-way AllReduce algorithm comparison.

Places the paper's algorithms in the wider design space of its cited HPC
work: ring (bandwidth-optimal, O(P) latency), recursive halving-doubling
(bandwidth-optimal, O(log P) latency — Thakur et al.), baseline double
tree, and the overlapped double tree (C1).  Reports total time and
whether each algorithm preserves chunk order (the property computation
chaining requires — only the trees do).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import simulate_on_fabric
from repro.collectives.chunking import optimal_chunk_count
from repro.collectives.double_tree import double_tree_allreduce
from repro.collectives.ring import ring_allreduce
from repro.collectives.halving_doubling import halving_doubling_allreduce
from repro.collectives.verification import delivers_in_order
from repro.core.config import CCubeConfig
from repro.experiments.report import format_bytes, render_table
from repro.topology.switch import FabricSpec

_KB = 1024
_MB = 1024 * 1024

DEFAULT_SIZES = (64 * _KB, 1 * _MB, 16 * _MB, 64 * _MB)


@dataclass(frozen=True)
class AlgoRow:
    """One (algorithm, size) point."""

    algorithm: str
    nbytes: float
    time_ms: float
    turnaround_ms: float
    in_order: bool


def run(
    *,
    nnodes: int = 8,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    config: CCubeConfig | None = None,
) -> list[AlgoRow]:
    config = config or CCubeConfig()
    fabric = FabricSpec(
        nnodes=nnodes, alpha=config.alpha, beta=config.beta, lanes=2
    )
    rows = []
    for size in sizes:
        nchunks = optimal_chunk_count(
            nnodes, size / 2.0, alpha=config.alpha, beta=config.beta,
            max_chunks=config.max_chunks,
        )
        schedules = [
            ("ring", ring_allreduce(nnodes, float(size))),
            ("halving-doubling",
             halving_doubling_allreduce(nnodes, float(size))),
            ("double tree (B)",
             double_tree_allreduce(nnodes, float(size), nchunks=nchunks)),
            ("overlapped tree (C1)",
             double_tree_allreduce(nnodes, float(size), nchunks=nchunks,
                                   overlapped=True)),
        ]
        for name, schedule in schedules:
            outcome = simulate_on_fabric(schedule, fabric)
            rows.append(
                AlgoRow(
                    algorithm=name,
                    nbytes=float(size),
                    time_ms=outcome.total_time * 1e3,
                    turnaround_ms=outcome.turnaround * 1e3,
                    in_order=delivers_in_order(outcome),
                )
            )
    return rows


def format_table(rows: list[AlgoRow]) -> str:
    return render_table(
        ["algorithm", "message", "time (ms)", "turnaround (ms)",
         "in-order (chainable)"],
        [
            (r.algorithm, format_bytes(r.nbytes), r.time_ms,
             r.turnaround_ms, "yes" if r.in_order else "no")
            for r in rows
        ],
        title="Extension — AllReduce algorithm design space (8 nodes)",
    )
