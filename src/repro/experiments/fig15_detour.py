"""Paper Fig. 15 — per-GPU overhead of the detour (forwarding) nodes.

Detour routes forward chunks through intermediate GPUs using GPUDirect
copy kernels that steal SM time from training compute.  The paper
measures only 3-4% throughput loss on the detour GPUs (GPU0/GPU1 in its
embedding) relative to the others, because the communication is
bandwidth- not latency-dominated.

In our embedding of the paper's tree constraints, the single detoured
logical edge (GPU2-GPU4) relays through GPU0, so GPU0 carries the
forwarding load (the paper's own tree pair had detours through both GPU0
and GPU1 — see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.comm import build_strategy_schedule
from repro.core.config import CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline
from repro.dnn.networks import NETWORKS
from repro.experiments.report import render_table
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.embedding import FORWARDING_COPY_BANDWIDTH, embed_on_physical
from repro.topology.routing import Router


#: Fraction of a GPU's SMs one persistent forwarding kernel reserves for
#: the whole iteration (the paper's detour kernels are resident CUDA
#: persistent kernels; a couple of SMs out of a V100's 80).
FORWARDING_SM_FRACTION = 0.015


@dataclass(frozen=True)
class Fig15Row:
    """One GPU's relative throughput."""

    gpu: int
    is_detour_node: bool
    forwarding_kernels: int
    forwarded_mb: float
    normalized_performance: float  # relative to the best GPU


def run(
    *,
    network_name: str = "resnet50",
    batch: int = 64,
    config: CCubeConfig | None = None,
) -> list[Fig15Row]:
    """Per-GPU normalized throughput under C-Cube (batch 64, high BW)."""
    config = config or CCubeConfig()
    network = NETWORKS[network_name]()
    schedule = build_strategy_schedule(
        Strategy.CCUBE, float(network.total_bytes), config
    )
    topo = dgx1_topology(
        nvlink_bandwidth=1.0 / config.beta, nvlink_alpha=config.alpha
    )
    router = Router(topo, detour_preference=DETOUR_NODES)
    _, report = embed_on_physical(schedule.dag, topo, router)

    pipeline = IterationPipeline(network=network, batch=batch, config=config)
    comm = pipeline.comm_outcome(Strategy.CCUBE)
    base = pipeline.run(Strategy.CCUBE, comm=comm)

    throughputs: dict[int, float] = {}
    for gpu in range(config.nnodes):
        forwarded = report.forwarded_bytes.get(gpu, 0.0)
        nkernels = len(report.relay_routes.get(gpu, ()))
        # Two costs: the persistent forwarding kernels reserve SMs for the
        # whole iteration, and the copies themselves steal memory/SM time.
        reserved = min(0.5, nkernels * FORWARDING_SM_FRACTION)
        forwarding_time = forwarded / FORWARDING_COPY_BANDWIDTH
        scale = (1.0 + forwarding_time / base.ideal_time) / (1.0 - reserved)
        gpu_pipeline = IterationPipeline(
            network=network, batch=batch, config=config, compute_scale=scale
        )
        result = gpu_pipeline.run(Strategy.CCUBE, comm=comm)
        throughputs[gpu] = 1.0 / result.iteration_time
    best = max(throughputs.values())
    return [
        Fig15Row(
            gpu=gpu,
            is_detour_node=gpu in DETOUR_NODES,
            forwarding_kernels=len(report.relay_routes.get(gpu, ())),
            forwarded_mb=report.forwarded_bytes.get(gpu, 0.0) / 1e6,
            normalized_performance=throughputs[gpu] / best,
        )
        for gpu in range(config.nnodes)
    ]


def format_table(rows: list[Fig15Row]) -> str:
    return render_table(
        ["gpu", "detour node", "fw kernels", "forwarded (MB/iter)",
         "normalized perf"],
        [
            (r.gpu, "yes" if r.is_detour_node else "no",
             r.forwarding_kernels, r.forwarded_mb,
             f"{r.normalized_performance:.4f}")
            for r in rows
        ],
        title="Fig. 15 — detour-node overhead (ResNet-50, batch 64, high BW)",
    )
