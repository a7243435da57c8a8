"""Ablation studies for the design choices DESIGN.md calls out.

1. **Detour vs PCIe** — the detour route through GPU0 vs falling back to
   host PCIe for the missing GPU2-GPU4 link (paper Section IV-A's
   motivation for detours).
2. **Channel conflicts** — the overlapped double tree on a DGX-1 *without*
   the duplicated GPU2-GPU3/GPU6-GPU7 NVLinks: both trees contend on
   single channels and the overlap advantage shrinks (why the paper needs
   the physical extra connectivity, Observation #4).
3. **Chunk-count sweep** — simulated overlapped-tree time across K,
   validating that the analytical optimum (Eq. 4) lands near the
   simulated minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import simulate_on_fabric, simulate_on_physical
from repro.collectives.chunking import optimal_chunk_count
from repro.collectives.double_tree import ccube_allreduce
from repro.collectives.tree import tree_allreduce
from repro.core.config import CCubeConfig
from repro.experiments.report import format_bytes, render_table
from repro.topology.dgx1 import (
    DETOUR_NODES,
    PCIE_ALPHA,
    PCIE_BANDWIDTH,
    dgx1_topology,
)
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router
from repro.topology.switch import FabricSpec

_MB = 1024 * 1024


# -- 1. detour vs PCIe ----------------------------------------------------


@dataclass(frozen=True)
class DetourAblationRow:
    nbytes: float
    detour_ms: float
    pcie_ms: float

    @property
    def detour_speedup(self) -> float:
        return self.pcie_ms / self.detour_ms


def run_detour_ablation(
    *,
    sizes: tuple[int, ...] = (16 * _MB, 64 * _MB, 256 * _MB),
    config: CCubeConfig | None = None,
) -> list[DetourAblationRow]:
    """C-Cube AllReduce with detour routes vs a PCIe link for GPU2-GPU4."""
    config = config or CCubeConfig()
    detour_topo = dgx1_topology(
        nvlink_bandwidth=1.0 / config.beta, nvlink_alpha=config.alpha
    )
    pcie_topo = dgx1_topology(
        nvlink_bandwidth=1.0 / config.beta, nvlink_alpha=config.alpha
    )
    # The PCIe alternative: a direct (slow) host-routed channel, which the
    # router will prefer over the detour because it is a direct link.
    pcie_topo.add_link(
        2, 4, alpha=PCIE_ALPHA, beta=1.0 / PCIE_BANDWIDTH
    )
    rows = []
    for size in sizes:
        nchunks = optimal_chunk_count(
            8, size / 2.0, alpha=config.alpha, beta=config.beta,
            max_chunks=config.max_chunks,
        )
        schedule = ccube_allreduce(8, float(size), nchunks=nchunks,
                                   trees=dgx1_trees())
        with_detour = simulate_on_physical(
            schedule, detour_topo,
            router=Router(detour_topo, detour_preference=DETOUR_NODES),
        )
        with_pcie = simulate_on_physical(
            schedule, pcie_topo,
            router=Router(pcie_topo, detour_preference=DETOUR_NODES),
        )
        rows.append(
            DetourAblationRow(
                nbytes=float(size),
                detour_ms=with_detour.total_time * 1e3,
                pcie_ms=with_pcie.total_time * 1e3,
            )
        )
    return rows


# -- 2. channel-conflict ablation -----------------------------------------


@dataclass(frozen=True)
class ConflictAblationRow:
    nbytes: float
    with_double_links_ms: float
    without_double_links_ms: float

    @property
    def contention_slowdown(self) -> float:
        return self.without_double_links_ms / self.with_double_links_ms


def run_conflict_ablation(
    *,
    sizes: tuple[int, ...] = (16 * _MB, 64 * _MB),
    config: CCubeConfig | None = None,
) -> list[ConflictAblationRow]:
    """Overlapped double tree with vs without the duplicated NVLinks."""
    config = config or CCubeConfig()
    rows = []
    for size in sizes:
        nchunks = optimal_chunk_count(
            8, size / 2.0, alpha=config.alpha, beta=config.beta,
            max_chunks=config.max_chunks,
        )
        schedule = ccube_allreduce(8, float(size), nchunks=nchunks,
                                   trees=dgx1_trees())
        times = {}
        for doubled in (True, False):
            topo = dgx1_topology(
                nvlink_bandwidth=1.0 / config.beta,
                nvlink_alpha=config.alpha,
                double_links=doubled,
            )
            outcome = simulate_on_physical(
                schedule, topo,
                router=Router(topo, detour_preference=DETOUR_NODES),
            )
            times[doubled] = outcome.total_time
        rows.append(
            ConflictAblationRow(
                nbytes=float(size),
                with_double_links_ms=times[True] * 1e3,
                without_double_links_ms=times[False] * 1e3,
            )
        )
    return rows


# -- 3. chunk-count sweep ---------------------------------------------------


@dataclass(frozen=True)
class ChunkSweepRow:
    nchunks: int
    time_ms: float
    is_analytical_optimum: bool


def run_chunk_sweep(
    *,
    nbytes: int = 32 * _MB,
    nnodes: int = 8,
    config: CCubeConfig | None = None,
    chunk_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
) -> list[ChunkSweepRow]:
    """Overlapped single-tree time vs pipeline chunk count K."""
    config = config or CCubeConfig()
    fabric = FabricSpec(nnodes=nnodes, alpha=config.alpha, beta=config.beta)
    k_opt = optimal_chunk_count(
        nnodes, float(nbytes), alpha=config.alpha, beta=config.beta,
        max_chunks=config.max_chunks,
    )
    rows = []
    for k in chunk_counts:
        schedule = tree_allreduce(
            nnodes, float(nbytes), nchunks=k, overlapped=True
        )
        outcome = simulate_on_fabric(schedule, fabric)
        # "Optimum" flags the swept K nearest to Eq. 4's real-valued K_opt.
        nearest = min(chunk_counts, key=lambda c: abs(c - k_opt))
        rows.append(
            ChunkSweepRow(
                nchunks=k,
                time_ms=outcome.total_time * 1e3,
                is_analytical_optimum=(k == nearest),
            )
        )
    return rows


def format_detour_ablation(rows: list[DetourAblationRow]) -> str:
    return render_table(
        ["message", "detour (ms)", "PCIe (ms)", "detour speedup"],
        [(format_bytes(r.nbytes), r.detour_ms, r.pcie_ms,
          f"{r.detour_speedup:.2f}x") for r in rows],
        title="Ablation — detour route vs PCIe fallback",
    )


def format_conflict_ablation(rows: list[ConflictAblationRow]) -> str:
    return render_table(
        ["message", "doubled links (ms)", "single links (ms)",
         "contention slowdown"],
        [(format_bytes(r.nbytes), r.with_double_links_ms,
          r.without_double_links_ms, f"{r.contention_slowdown:.2f}x")
         for r in rows],
        title="Ablation — overlapped double tree channel conflicts",
    )


def format_chunk_sweep(rows: list[ChunkSweepRow]) -> str:
    return render_table(
        ["K", "time (ms)", "≈ Eq.4 optimum"],
        [(r.nchunks, r.time_ms, "yes" if r.is_analytical_optimum else "")
         for r in rows],
        title="Ablation — chunk-count sweep (overlapped tree, 32MB)",
    )
