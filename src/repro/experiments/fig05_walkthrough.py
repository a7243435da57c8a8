"""Paper Fig. 5 — the 4-node worked example, reproduced step by step.

Fig. 5 walks AllReduce over 4 nodes and 4 chunks on the tree of the
figure (root N4 — N2 — leaves N1, N3), in unit "steps" (one chunk
transfer per step):

- conventional tree: pipelined reduction completes after step 5,
  broadcast after step 10;
- overlapped tree: broadcast of chunk 1 starts at step 3, everything
  completes after step 7;
- ring: 3 reduce-scatter + 3 all-gather transfer steps (the figure draws
  7 steps because its step 1 shows the initial chunk placement).

We rebuild exactly that configuration on unit-time channels and read the
step counts off the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import simulate_on_fabric
from repro.collectives.ring import ring_allreduce
from repro.collectives.tree import tree_allreduce
from repro.experiments.report import render_table
from repro.topology.logical import BinaryTree
from repro.topology.switch import FabricSpec

#: The Fig.-5 tree: node ids 0..3 standing for N1..N4.
FIG5_TREE = BinaryTree(
    root=3,
    parent={1: 3, 0: 1, 2: 1},
    children={3: (1,), 1: (0, 2), 0: (), 2: ()},
)

#: Unit-step channels: one chunk (1 byte at beta=1, alpha=0) per step.
UNIT_FABRIC = FabricSpec(nnodes=4, alpha=0.0, beta=1.0, lanes=2)

NCHUNKS = 4
NBYTES = float(NCHUNKS)  # 4 unit chunks


@dataclass(frozen=True)
class Fig05Row:
    """One algorithm's step account."""

    algorithm: str
    total_steps: float
    first_chunk_ready_step: float
    paper_steps: int


def run() -> list[Fig05Row]:
    baseline = simulate_on_fabric(
        tree_allreduce(4, NBYTES, nchunks=NCHUNKS, tree=FIG5_TREE),
        UNIT_FABRIC,
    )
    overlapped = simulate_on_fabric(
        tree_allreduce(4, NBYTES, nchunks=NCHUNKS, tree=FIG5_TREE,
                       overlapped=True),
        UNIT_FABRIC,
    )
    ring = simulate_on_fabric(ring_allreduce(4, NBYTES), UNIT_FABRIC)
    return [
        Fig05Row("tree (Fig. 5a)", baseline.total_time,
                 baseline.turnaround, 10),
        Fig05Row("overlapped tree (Fig. 5c)", overlapped.total_time,
                 overlapped.turnaround, 7),
        Fig05Row("ring (Fig. 5b)", ring.total_time, ring.turnaround, 7),
    ]


def format_table(rows: list[Fig05Row]) -> str:
    table = render_table(
        ["algorithm", "simulated steps", "first chunk ready (step)",
         "paper's step count"],
        [
            (r.algorithm, r.total_steps, r.first_chunk_ready_step,
             r.paper_steps)
            for r in rows
        ],
        title="Fig. 5 — 4-node, 4-chunk worked example (unit-time steps)",
    )
    note = (
        "\n  The ring's simulated 6 transfer steps correspond to the "
        "figure's 7 drawn\n  steps: its step 1 depicts the initial chunk "
        "placement, not a transfer."
    )
    return table + note
