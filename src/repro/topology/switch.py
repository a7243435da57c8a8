"""Switch-based scale-out fabrics for the simulation study (paper Fig. 14).

The paper complements the 8-GPU DGX-1 measurements with ASTRA-sim
simulations of "a hierarchical, indirect topology (i.e., intermediate
switches) as the number of nodes increases".  At the granularity the paper
uses the simulator — total AllReduce time and gradient turnaround under an
alpha-beta link model — a hierarchical fabric is fully described by the
*effective* per-logical-edge latency (which grows with switch hop count)
and per-link bandwidth.  :func:`fat_tree_fabric` computes that effective
alpha/beta; :func:`fat_tree_topology` / :func:`switch_topology` also build
explicit switch topologies for structural tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TopologyError
from repro.topology.base import LinkKind, PhysicalTopology


@dataclass(frozen=True)
class FabricSpec:
    """Uniform logical-edge channel parameters of a scale-out fabric.

    Attributes:
        nnodes: number of endpoints (GPUs).
        alpha: effective per-transfer latency between any two endpoints,
            including all switch traversals on the path.
        beta: seconds per byte of the endpoint link (the bandwidth
            bottleneck of a non-blocking fabric is the endpoint NIC/link).
        lanes: independent channels per directed endpoint pair the fabric
            can provide (a non-blocking switch fabric can carry both trees
            of a double tree without sharing endpoint-link direction).
        name: label for reports.
    """

    nnodes: int
    alpha: float
    beta: float
    lanes: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.nnodes < 2:
            raise TopologyError("fabric needs at least 2 nodes")
        if self.lanes < 1:
            raise TopologyError(f"fabric needs at least 1 lane, got {self.lanes}")


def fat_tree_levels(nnodes: int, radix: int) -> int:
    """Number of switch levels a radix-``radix`` fat tree needs."""
    if nnodes < 2:
        raise TopologyError("fabric needs at least 2 nodes")
    if radix < 2:
        raise TopologyError("switch radix must be >= 2")
    return max(1, math.ceil(math.log(nnodes) / math.log(radix)))


def fat_tree_fabric(
    nnodes: int,
    *,
    radix: int = 16,
    link_alpha: float = 2e-6,
    link_beta: float = 1.0 / 25e9,
    lanes: int = 1,
) -> FabricSpec:
    """Effective channel parameters of a ``nnodes``-endpoint fat tree.

    The worst-case path climbs to the top level and back down, so the
    effective alpha is the endpoint link latency plus ``2 * levels`` switch
    traversals of 0.5 us each.  Bandwidth is the endpoint link bandwidth
    (non-blocking fabric, as in the paper's constant-bandwidth comparison).
    """
    levels = fat_tree_levels(nnodes, radix)
    alpha = link_alpha + 2 * levels * 5e-7
    return FabricSpec(
        nnodes=nnodes,
        alpha=alpha,
        beta=link_beta,
        lanes=lanes,
        name=f"fat-tree(r{radix},L{levels})",
    )


def switch_topology(
    nnodes: int,
    *,
    radix: int = 8,
    link_alpha: float = 2e-6,
    link_beta: float = 1.0 / 25e9,
) -> PhysicalTopology:
    """Explicit two-level switch topology (leaf switches + one spine).

    GPUs ``0..nnodes-1`` attach to ``ceil(nnodes/radix)`` leaf switches;
    every leaf switch links to a single spine switch.  Used by structural
    tests; the scale-out experiments use :func:`fat_tree_fabric` instead.
    """
    if nnodes < 2:
        raise TopologyError("switch topology needs at least 2 GPUs")
    nleaf = math.ceil(nnodes / radix)
    leaf_ids = [nnodes + i for i in range(nleaf)]
    spine_id = nnodes + nleaf
    switch_ids = frozenset(leaf_ids + [spine_id])
    topo = PhysicalTopology(
        nnodes=nnodes, name=f"switch(r{radix})", switch_ids=switch_ids
    )
    for gpu in range(nnodes):
        leaf = leaf_ids[gpu // radix]
        topo.add_link(
            gpu, leaf, alpha=link_alpha, beta=link_beta, kind=LinkKind.NETWORK
        )
    for leaf in leaf_ids:
        topo.add_link(
            leaf, spine_id, alpha=link_alpha, beta=link_beta, kind=LinkKind.NETWORK
        )
    topo.validate()
    return topo


def fat_tree_topology(
    nnodes: int,
    *,
    radix: int = 8,
    link_alpha: float = 2e-6,
    link_beta: float = 1.0 / 25e9,
) -> PhysicalTopology:
    """Alias for :func:`switch_topology` (two-level fat tree)."""
    return switch_topology(
        nnodes, radix=radix, link_alpha=link_alpha, link_beta=link_beta
    )
