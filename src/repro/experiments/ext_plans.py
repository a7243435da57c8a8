"""Extension — planned vs hand-written collective execution times.

The plan IR (:mod:`repro.plan`) claims its compiled schedules are
*equivalent* to the hand-written ones: the same dependence structure,
hence the same simulated makespan, while being statically verifiable and
mutation-checkable.  This experiment is that claim as a table: for every
algorithm the plan pipeline (build -> legalize -> lane-assign -> lower)
is simulated next to the corresponding hand-written schedule on the same
DGX-1 model, with the static verifier's verdict alongside.

The two makespans must be *equal*: the builders emit exactly the
hand-written program orders, so any difference means the lowering lost
or invented a dependence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import simulate_on_fabric, simulate_on_physical
from repro.collectives.double_tree import double_tree_allreduce
from repro.collectives.halving_doubling import halving_doubling_allreduce
from repro.collectives.ring import DGX1_RING_ORDER, ring_allreduce
from repro.collectives.tree import tree_allreduce
from repro.experiments.report import render_table
from repro.plan.builders import build_plan
from repro.plan.lowering import simulate_plan
from repro.plan.verifier import verify_plan
from repro.sim.oracle import check_plan_ordering
from repro.topology.dgx1 import (
    DETOUR_NODES,
    NVLINK_ALPHA,
    NVLINK_BANDWIDTH,
    dgx1_topology,
)
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router
from repro.topology.switch import FabricSpec

#: Message size matching the paper's mid-size sweep point.
DEFAULT_NBYTES = 64e6
DEFAULT_NCHUNKS = 8


@dataclass(frozen=True)
class PlanRow:
    """One algorithm's planned-vs-hand-written comparison.

    Attributes:
        algorithm: collective name.
        target: ``"fabric"`` (abstract 2-lane switch) or ``"dgx1"``
            (physical model with detours).
        ops: op count of the (compiled) plan.
        verified: the static verifier accepted the plan.
        ordered: the sim-side ordering oracle
            (:func:`repro.sim.oracle.check_plan_ordering`) found the
            simulated trace consistent with the runtime's
            happens-before model.
        planned_us: simulated makespan of the lowered plan.
        handwritten_us: simulated makespan of the hand-written schedule.
        gap_pct: ``planned / handwritten - 1`` in percent.
        nbytes: message size both schedules reduce.
        nchunks: chunks per tree of the tree schedules.
    """

    algorithm: str
    target: str
    ops: int
    verified: bool
    ordered: bool
    planned_us: float
    handwritten_us: float
    gap_pct: float
    nbytes: float
    nchunks: int


def run(
    nbytes: float = DEFAULT_NBYTES, nchunks: int = DEFAULT_NCHUNKS
) -> list[PlanRow]:
    """Compare every algorithm's plan against its hand-written schedule."""
    fabric = FabricSpec(
        nnodes=8,
        alpha=NVLINK_ALPHA,
        beta=1.0 / NVLINK_BANDWIDTH,
        lanes=2,
        name="dgx1-abstract",
    )
    rows: list[PlanRow] = []

    def add(algorithm, target, plan, planned, handwritten, verified,
            ordered):
        rows.append(PlanRow(
            algorithm=algorithm,
            target=target,
            ops=len(plan.ops),
            verified=verified,
            ordered=ordered,
            planned_us=planned * 1e6,
            handwritten_us=handwritten * 1e6,
            gap_pct=100.0 * (planned / handwritten - 1.0),
            nbytes=nbytes,
            nchunks=nchunks,
        ))

    cases = [
        (
            "ring",
            build_plan("ring", 8, nbytes, order=list(DGX1_RING_ORDER)),
            ring_allreduce(8, nbytes, order=list(DGX1_RING_ORDER)),
        ),
        (
            "tree",
            build_plan("tree", 8, nbytes, nchunks=nchunks, overlapped=True),
            tree_allreduce(8, nbytes, nchunks=nchunks, overlapped=True),
        ),
        (
            "double_tree",
            build_plan(
                "double_tree", 8, nbytes, nchunks=nchunks, overlapped=True
            ),
            double_tree_allreduce(
                8, nbytes, nchunks=nchunks, overlapped=True
            ),
        ),
        (
            "halving_doubling",
            build_plan("halving_doubling", 8, nbytes),
            halving_doubling_allreduce(8, nbytes),
        ),
    ]
    for name, plan, schedule in cases:
        verified = verify_plan(plan, raise_on_error=False).ok
        outcome = simulate_plan(plan, fabric=fabric)
        ordered = check_plan_ordering(
            outcome.plan, outcome.dag, outcome.sim
        ).ok
        handwritten = simulate_on_fabric(schedule, fabric).total_time
        add(name, "fabric", plan, outcome.total_time, handwritten,
            verified, ordered)

    # Physical DGX-1: the C-Cube double tree with its detoured edge —
    # the plan goes through route legalization, the hand-written
    # schedule through the embedding pass.
    topo = dgx1_topology()
    router = Router(topo, detour_preference=DETOUR_NODES)
    plan = build_plan(
        "double_tree",
        8,
        nbytes,
        nchunks=nchunks,
        trees=dgx1_trees(),
        overlapped=True,
    )
    outcome = simulate_plan(plan, topo=topo, router=router)
    compiled = outcome.plan
    verified = verify_plan(
        compiled, topo=topo, raise_on_error=False
    ).ok
    ordered = check_plan_ordering(compiled, outcome.dag, outcome.sim).ok
    schedule = double_tree_allreduce(
        8, nbytes, nchunks=nchunks, trees=dgx1_trees(), overlapped=True
    )
    handwritten = simulate_on_physical(
        schedule, topo, router=router
    ).total_time
    add("double_tree (C-Cube)", "dgx1", compiled, outcome.total_time,
        handwritten, verified, ordered)
    return rows


def format_table(rows: list[PlanRow]) -> str:
    return render_table(
        ["algorithm", "target", "plan ops", "verified", "ordered",
         "planned (us)", "hand-written (us)", "gap"],
        [
            (
                r.algorithm,
                r.target,
                r.ops,
                "yes" if r.verified else "NO",
                "yes" if r.ordered else "NO",
                f"{r.planned_us:.1f}",
                f"{r.handwritten_us:.1f}",
                f"{r.gap_pct:+.2f}%",
            )
            for r in rows
        ],
        title=(
            "Extension — plan IR vs hand-written schedules "
            f"(DGX-1, {rows[0].nbytes / 1e6:.0f} MB, "
            f"{rows[0].nchunks} chunks)"
        ),
    )
