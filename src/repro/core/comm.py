"""Building and simulating a strategy's AllReduce on a concrete system.

This glues the evaluation pieces together: given a strategy (B / C1 / C2 /
R / CC), a message size and the system parameters, build the collective
schedule with the optimal chunk count and simulate it: tree strategies
embedded on the physical DGX-1, the ring on an abstract fabric.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.collectives.base import (
    AllReduceOutcome,
    CollectiveSchedule,
    simulate_on_fabric,
    simulate_on_physical,
)
from repro.collectives.chunking import optimal_chunk_count
from repro.collectives.double_tree import (
    ccube_allreduce,
    double_tree_allreduce,
)
from repro.collectives.ring import ring_allreduce
from repro.core.config import CCubeConfig, Strategy
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router
from repro.topology.switch import FabricSpec


def build_strategy_schedule(
    strategy: Strategy,
    nbytes: float,
    config: CCubeConfig,
) -> CollectiveSchedule:
    """Build the collective schedule a strategy uses.

    Tree strategies use the DGX-1 tree pair, so they need
    ``config.nnodes == 8``.

    Args:
        strategy: evaluated configuration.
        nbytes: gradient bytes AllReduced per iteration.
        config: system parameters (node count, alpha/beta, ring count).
    """
    if strategy is Strategy.RING:
        return ring_allreduce(config.nnodes, nbytes, nrings=config.nrings)
    if config.nnodes != 8:
        raise ConfigError("the DGX-1 tree pair needs nnodes == 8")
    # Each tree carries half the message; chunk count per Eq. 4 on a half.
    nchunks = optimal_chunk_count(
        config.nnodes,
        nbytes / 2.0,
        alpha=config.alpha,
        beta=config.beta,
        max_chunks=config.max_chunks,
    )
    builder = (
        ccube_allreduce if strategy.overlaps_phases else double_tree_allreduce
    )
    return builder(config.nnodes, nbytes, nchunks=nchunks, trees=dgx1_trees())


def simulate_strategy_comm(
    strategy: Strategy,
    nbytes: float,
    config: CCubeConfig,
) -> AllReduceOutcome:
    """Build and simulate the strategy's AllReduce.

    Tree strategies are embedded onto the physical DGX-1 hybrid
    mesh-cube (detours, lane assignment, forwarding charges); the ring
    runs on an abstract fabric with the config's alpha/beta (NCCL's rings
    use disjoint physical NVLink sets on the real machine; our reduced
    link model abstracts that as ``nrings`` dedicated lanes).
    """
    schedule = build_strategy_schedule(strategy, nbytes, config)
    if strategy is not Strategy.RING:
        topo = dgx1_topology(nvlink_bandwidth=1.0 / config.beta,
                             nvlink_alpha=config.alpha)
        router = Router(topo, detour_preference=DETOUR_NODES)
        return simulate_on_physical(schedule, topo, router=router)
    fabric = FabricSpec(
        nnodes=config.nnodes,
        alpha=config.alpha,
        beta=config.beta,
        lanes=max(2, config.nrings),
        name="abstract",
    )
    return simulate_on_fabric(schedule, fabric)
