"""DGX-2-class NVSwitch topology: the "alternative physical topology"
study the paper's related work points to.

A DGX-2 connects 16 V100s through NVSwitch: every GPU pair is effectively
directly connected at full per-GPU NVLink bandwidth (the switch is
non-blocking).  Consequences for C-Cube:

- no detour routes are needed (every logical tree edge is realizable),
- every directed pair supports as many lanes as needed, so the
  overlapped *double* tree works without relying on duplicated links —
  the Observation-#4 workaround becomes unnecessary,
- per-GPU aggregate bandwidth is higher (6 NVLink bricks into the
  switch), so the paper's bandwidth-bound gains shift accordingly.

We model it as a full crossbar: one channel per directed GPU pair with
``lanes`` parallel lanes, each at one NVLink brick's bandwidth.
"""

from __future__ import annotations

from repro.topology.base import PhysicalTopology

#: One NVLink 2.0 brick (same as DGX-1), bytes/second per direction.
NVSWITCH_LINK_BANDWIDTH = 25e9

#: Per-transfer latency through NVSwitch (one extra hop vs direct NVLink).
NVSWITCH_ALPHA = 2.5e-6


def dgx2_topology(
    *,
    ngpus: int = 16,
    lanes: int = 2,
    alpha: float = NVSWITCH_ALPHA,
) -> PhysicalTopology:
    """Build an NVSwitch-class full crossbar.

    Args:
        ngpus: GPU count (16 for a DGX-2).
        lanes: parallel lanes per directed pair the switch can sustain
            concurrently (2 suffices for an overlapped double tree), each
            at :data:`NVSWITCH_LINK_BANDWIDTH`.
        alpha: per-transfer latency including the switch hop.
    """
    beta = 1.0 / NVSWITCH_LINK_BANDWIDTH
    topo = PhysicalTopology(nnodes=ngpus, name=f"dgx2({ngpus})")
    for u in range(ngpus):
        for v in range(u + 1, ngpus):
            for _ in range(lanes):
                topo.add_link(u, v, alpha=alpha, beta=beta)
    topo.validate()
    return topo
