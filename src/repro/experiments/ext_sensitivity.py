"""Extension study — sensitivity of C-Cube's benefit to link parameters.

The headline numbers depend on calibration constants (alpha, beta).  This
sweep varies both across two decades and reports the C1-over-B
communication speedup and turnaround improvement at 64 MB on 8 nodes,
showing the conclusions are parameter-robust:

- the overlap speedup stays in (1, 2] everywhere and approaches 2x
  whenever bandwidth dominates (small alpha or large beta);
- the turnaround improvement grows with the chunk count Eq. 4 picks, so
  it is largest exactly where pipelining is worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import simulate_on_fabric
from repro.collectives.chunking import optimal_chunk_count
from repro.collectives.double_tree import double_tree_allreduce
from repro.experiments.report import render_table
from repro.topology.switch import FabricSpec

_MB = 1024 * 1024

DEFAULT_ALPHA_SCALES = (0.1, 1.0, 10.0)
DEFAULT_BETA_SCALES = (0.25, 1.0, 4.0)


@dataclass(frozen=True)
class SensitivityRow:
    """One (alpha, beta) calibration point."""

    alpha: float
    beta: float
    nchunks: int
    overlap_speedup: float
    turnaround_speedup: float


def run(
    *,
    nnodes: int = 8,
    nbytes: int = 64 * _MB,
    base_alpha: float = 2e-6,
    base_beta: float = 1.0 / 25e9,
    alpha_scales: tuple[float, ...] = DEFAULT_ALPHA_SCALES,
    beta_scales: tuple[float, ...] = DEFAULT_BETA_SCALES,
) -> list[SensitivityRow]:
    rows = []
    for alpha_scale in alpha_scales:
        for beta_scale in beta_scales:
            alpha = base_alpha * alpha_scale
            beta = base_beta * beta_scale
            nchunks = optimal_chunk_count(
                nnodes, nbytes / 2.0, alpha=alpha, beta=beta
            )
            fabric = FabricSpec(
                nnodes=nnodes, alpha=alpha, beta=beta, lanes=2
            )
            base = simulate_on_fabric(
                double_tree_allreduce(nnodes, float(nbytes),
                                      nchunks=nchunks),
                fabric,
            )
            over = simulate_on_fabric(
                double_tree_allreduce(nnodes, float(nbytes),
                                      nchunks=nchunks, overlapped=True),
                fabric,
            )
            rows.append(
                SensitivityRow(
                    alpha=alpha,
                    beta=beta,
                    nchunks=nchunks,
                    overlap_speedup=base.total_time / over.total_time,
                    turnaround_speedup=base.turnaround / over.turnaround,
                )
            )
    return rows


def format_table(rows: list[SensitivityRow]) -> str:
    return render_table(
        ["alpha (us)", "BW (GB/s)", "K (Eq.4)", "C1/B speedup",
         "turnaround speedup"],
        [
            (r.alpha * 1e6, 1e-9 / r.beta, r.nchunks,
             f"{r.overlap_speedup:.2f}x",
             f"{r.turnaround_speedup:.1f}x")
            for r in rows
        ],
        title="Extension — alpha/beta sensitivity of the overlap benefit "
              "(64 MB, 8 nodes)",
    )
