"""The DGX-1 hybrid mesh-cube topology used in the paper's evaluation.

The paper's Figure 10(c) system is an 8-GPU NVIDIA DGX-1 (V100) whose
NVLinks form a *hybrid mesh-cube*: two fully-connected quads
``{0,1,2,3}`` and ``{4,5,6,7}`` joined by cube edges ``0-4, 1-5, 2-6, 3-7``,
with **duplicated** (two-brick) NVLinks between GPU2-GPU3 and GPU6-GPU7.
The duplicated channels are exactly what the paper exploits to run the
overlapped *double* tree (Observation #4); GPU pairs that are not directly
connected (e.g. GPU2-GPU4) would fall back to PCIe through the host, which
the paper avoids with *detour* routes through GPU0/GPU1.

Each NVLink brick provides 25 GB/s per direction (V100 / NVLink 2.0).
:class:`~repro.topology.base.PhysicalTopology` loads on the first
:func:`dgx1_topology` call: a trainer that reads only the constants
should not compile the topology model and the DES types it imports.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.topology.base import PhysicalTopology

#: Peak bandwidth of one NVLink 2.0 brick, bytes/second, per direction.
NVLINK_BANDWIDTH = 25e9

#: Per-chunk-transfer fixed latency over NVLink (device-side sync + launch).
NVLINK_ALPHA = 2e-6

#: Effective host PCIe bandwidth for GPU-to-GPU traffic through the CPU.
PCIE_BANDWIDTH = 8e9

#: Per-transfer latency when staging through the host over PCIe.
PCIE_ALPHA = 15e-6

#: GPUs the paper designates as detour (intermediate/forwarding) nodes.
DETOUR_NODES = (0, 1)

#: A Hamiltonian cycle over the modelled DGX-1 NVLinks, used when running
#: the ring algorithm on the physical DGX-1.
DGX1_RING_ORDER = (0, 1, 2, 3, 7, 6, 5, 4)

#: GPU pairs joined by two parallel NVLink bricks in each direction.
DOUBLE_LINK_PAIRS = ((2, 3), (6, 7))

_QUADS = ((0, 1, 2, 3), (4, 5, 6, 7))
_CUBE_EDGES = ((0, 4), (1, 5), (2, 6), (3, 7))


def dgx1_topology(
    *,
    nvlink_bandwidth: float = NVLINK_BANDWIDTH,
    nvlink_alpha: float = NVLINK_ALPHA,
    double_links: bool = True,
) -> PhysicalTopology:
    """Build and validate the 8-GPU DGX-1 hybrid mesh-cube.

    Args:
        nvlink_bandwidth: per-direction bandwidth of one NVLink brick (B/s).
        nvlink_alpha: per-transfer latency of a chunk over NVLink (s).
        double_links: include the duplicated GPU2-GPU3 / GPU6-GPU7 bricks.
            Disabling them yields the "logical-only" topology used by the
            channel-conflict ablation: the overlapped double tree then has
            to share single physical channels and loses its advantage.
    """
    from repro.topology.base import PhysicalTopology

    beta = 1.0 / nvlink_bandwidth
    topo = PhysicalTopology(nnodes=8, name="dgx1")
    links = [pair for quad in _QUADS for pair in combinations(quad, 2)]
    links += _CUBE_EDGES + (DOUBLE_LINK_PAIRS if double_links else ())
    for u, v in links:
        topo.add_link(u, v, alpha=nvlink_alpha, beta=beta)
    topo.validate()
    return topo
