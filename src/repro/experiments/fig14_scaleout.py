"""Paper Fig. 14 — scale-out simulations (ASTRA-sim substitute).

(a) Communication-time ratio of the ring over the overlapped tree (C1) —
above 1 means C1 wins — across node counts and message sizes, on a
hierarchical switch fabric with constant per-link bandwidth.  Expected
shape: ~20x for small messages (latency dominates, ring latency is O(P)),
tens of percent for 64 MB, growing with node count.

(b) Gradient-turnaround speedup of C1 over the baseline tree (B): large
for big messages with many chunks (the first chunk no longer waits for
the whole reduction phase) and 1x when there is a single chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import simulate_on_fabric
from repro.collectives.double_tree import double_tree_allreduce
from repro.collectives.ring import ring_allreduce
from repro.experiments.report import format_bytes, render_table
from repro.topology.switch import fat_tree_fabric

_KB = 1024
_MB = 1024 * 1024

DEFAULT_NODES = (8, 16, 32, 64, 128)
#: Message sizes with the paper's chunk counts (256 chunks at 64 MB).
DEFAULT_SIZES = ((16 * _KB, 1), (1 * _MB, 16), (64 * _MB, 256))


@dataclass(frozen=True)
class Fig14Row:
    """One (nodes, size) point."""

    nnodes: int
    nbytes: float
    nchunks: int
    ring_time: float
    baseline_time: float
    overlapped_time: float
    baseline_turnaround: float
    overlapped_turnaround: float

    @property
    def c1_over_ring(self) -> float:
        """Fig. 14(a): ring time / C1 time (>1 means C1 faster)."""
        return self.ring_time / self.overlapped_time

    @property
    def turnaround_speedup(self) -> float:
        """Fig. 14(b): baseline turnaround / C1 turnaround."""
        return self.baseline_turnaround / self.overlapped_turnaround


def run(
    *,
    nodes: tuple[int, ...] = DEFAULT_NODES,
    sizes: tuple[tuple[int, int], ...] = DEFAULT_SIZES,
    radix: int = 16,
) -> list[Fig14Row]:
    rows = []
    for nnodes in nodes:
        fabric = fat_tree_fabric(nnodes, radix=radix, lanes=2)
        for nbytes, nchunks in sizes:
            ring = simulate_on_fabric(
                ring_allreduce(nnodes, float(nbytes)), fabric
            )
            base = simulate_on_fabric(
                double_tree_allreduce(
                    nnodes, float(nbytes), nchunks=nchunks, overlapped=False
                ),
                fabric,
            )
            over = simulate_on_fabric(
                double_tree_allreduce(
                    nnodes, float(nbytes), nchunks=nchunks, overlapped=True
                ),
                fabric,
            )
            rows.append(
                Fig14Row(
                    nnodes=nnodes,
                    nbytes=float(nbytes),
                    nchunks=nchunks,
                    ring_time=ring.total_time,
                    baseline_time=base.total_time,
                    overlapped_time=over.total_time,
                    baseline_turnaround=base.turnaround,
                    overlapped_turnaround=over.turnaround,
                )
            )
    return rows


def format_table(rows: list[Fig14Row]) -> str:
    return render_table(
        ["nodes", "message", "chunks/tree", "R/C1 (14a)",
         "turnaround B/C1 (14b)"],
        [
            (r.nnodes, format_bytes(r.nbytes), r.nchunks,
             f"{r.c1_over_ring:.2f}x", f"{r.turnaround_speedup:.1f}x")
            for r in rows
        ],
        title="Fig. 14 — scale-out: overlapped tree vs ring / baseline",
    )
