"""Extension study — C-Cube on an NVSwitch (DGX-2-class) topology.

The paper's related work asks how "alternative physical topologies in
large-scale systems can be exploited".  On a full crossbar the two
physical-topology workarounds become unnecessary: every tree edge is
direct (no detours) and every directed pair has spare lanes (no conflict
between the two trees).  This experiment compares the baseline and
overlapped double trees on the DGX-1 (8 GPUs, detours + doubled links)
against a DGX-2 crossbar at 8 and 16 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import simulate_on_physical
from repro.collectives.chunking import optimal_chunk_count
from repro.collectives.double_tree import (
    ccube_allreduce,
    double_tree_allreduce,
)
from repro.core.config import CCubeConfig, Strategy
from repro.core.comm import simulate_strategy_comm
from repro.experiments.report import format_bytes, render_table
from repro.topology.dgx2 import dgx2_topology
from repro.topology.embedding import embed_on_physical
from repro.topology.logical import two_trees
from repro.topology.routing import Router

_MB = 1024 * 1024


@dataclass(frozen=True)
class Dgx2Row:
    """One (system, size) comparison point."""

    system: str
    ngpus: int
    nbytes: float
    baseline_ms: float
    ccube_ms: float
    detour_transfers: int

    @property
    def overlap_speedup(self) -> float:
        return self.baseline_ms / self.ccube_ms


def _simulate_on_dgx2(
    ngpus: int, nbytes: float, config: CCubeConfig, *, overlapped: bool
):
    topo = dgx2_topology(ngpus=ngpus)
    router = Router(topo)
    nchunks = optimal_chunk_count(
        ngpus, nbytes / 2.0, alpha=config.alpha, beta=config.beta,
        max_chunks=config.max_chunks,
    )
    builder = ccube_allreduce if overlapped else double_tree_allreduce
    schedule = builder(
        ngpus, nbytes, nchunks=nchunks, trees=two_trees(ngpus)
    )
    _, report = embed_on_physical(schedule.dag, topo, router)
    outcome = simulate_on_physical(schedule, topo, router=router)
    return outcome, report


def run(
    *,
    sizes: tuple[int, ...] = (16 * _MB, 64 * _MB),
    config: CCubeConfig | None = None,
) -> list[Dgx2Row]:
    config = config or CCubeConfig()
    rows = []
    for size in sizes:
        # DGX-1 reference (embedded hybrid mesh-cube with detours).
        base = simulate_strategy_comm(Strategy.BASELINE, float(size), config)
        over = simulate_strategy_comm(
            Strategy.OVERLAPPED_TREE, float(size), config
        )
        rows.append(
            Dgx2Row(
                system="dgx1",
                ngpus=8,
                nbytes=float(size),
                baseline_ms=base.total_time * 1e3,
                ccube_ms=over.total_time * 1e3,
                detour_transfers=1,  # the GPU2-GPU4 logical edge
            )
        )
        for ngpus in (8, 16):
            base_out, base_rep = _simulate_on_dgx2(
                ngpus, float(size), config, overlapped=False
            )
            over_out, _ = _simulate_on_dgx2(
                ngpus, float(size), config, overlapped=True
            )
            rows.append(
                Dgx2Row(
                    system="dgx2",
                    ngpus=ngpus,
                    nbytes=float(size),
                    baseline_ms=base_out.total_time * 1e3,
                    ccube_ms=over_out.total_time * 1e3,
                    detour_transfers=base_rep.detour_transfers,
                )
            )
    return rows


def format_table(rows: list[Dgx2Row]) -> str:
    return render_table(
        ["system", "GPUs", "message", "B (ms)", "CC comm (ms)",
         "overlap speedup", "detoured edges"],
        [
            (r.system, r.ngpus, format_bytes(r.nbytes), r.baseline_ms,
             r.ccube_ms, f"{r.overlap_speedup:.2f}x", r.detour_transfers)
            for r in rows
        ],
        title="Extension — C-Cube on NVSwitch (DGX-2) vs DGX-1",
    )
