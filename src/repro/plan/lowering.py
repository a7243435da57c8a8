"""Lower a plan to the discrete-event simulator (:mod:`repro.sim`).

A SEND and its paired RECV/REDUCE become *one* transfer op on a channel
resource (the DES models a link as a FIFO channel, not two endpoints);
the transfer's deps are the union of both endpoints' mapped deps, which
reproduces the hand-written schedules' dependence structure exactly.
COPY markers become zero-duration ops on per-GPU sync resources, and
relay hops of a legalized detour charge the intermediate GPU's
forwarding kernel — the same model
:func:`repro.topology.embedding.embed_on_physical` applies to logical
DAGs.  A REDUCE is priced as part of its transfer: the DES charges no
reduction compute.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..errors import EmbeddingError, PlanError
from ..sim.dag import PHASES, Dag, Label, Phase
from ..sim.engine import DagSimulator, SimResult
from ..sim.resources import Channel, Processor
from ..topology.base import PhysicalTopology, chan_key, gpu_key
from ..topology.dgx1 import PCIE_ALPHA, PCIE_BANDWIDTH
from ..topology.embedding import (
    FORWARDING_COPY_BANDWIDTH,
    abstract_resources,
    edge_key,
    fold_lanes,
)
from ..topology.routing import Router
from ..topology.switch import FabricSpec
from .ir import K_COPY, K_SEND, Plan
from .verifier import WirePairing, match_wires

__all__ = [
    "lower_to_dag",
    "simulate_plan",
    "PlanOutcome",
    "pcie_key",
]


def pcie_key(u: int, v: int) -> tuple:
    """Resource key of the host (PCIe) path between two GPUs."""
    return ("pcie", u, v)


def lower_to_dag(
    plan: Plan,
    *,
    pairing: WirePairing | None = None,
) -> Dag:
    """Lower a plan to a DES DAG, reading the plan's columns.

    Unlegalized plans produce logical ``("edge", src, dst, lane)``
    resources (simulatable on an abstract fabric); legalized plans
    produce physical ``("chan", ...)`` / ``("pcie", ...)`` resources.
    Every relay hop of a detour also gets a forwarding op on the
    intermediate GPU's compute resource.

    Args:
        plan: the (verified) plan.
        pairing: ``plan``'s wire pairing — its
            :func:`~repro.plan.verifier.verify_plan` report's — so the
            plan is not paired again; computed here when omitted.
    """
    if pairing is None:
        pairing = match_wires(plan)
    if pairing.diagnostics:
        raise PlanError(
            "cannot lower an unmatchable plan: " + pairing.errors[0]
        )
    partner = pairing.partner.ids
    dag = Dag()
    n = len(plan)
    # plan op id -> DES op id whose completion marks it done.
    done = array("i", [-1]) * n
    # DES op id -> plan ops whose deps it takes, resolved after every
    # op exists.
    plan_deps_of: dict[int, tuple[int, ...]] = {}
    rank, peer, lane, tree = plan.rank, plan.peer, plan.lane, plan.tree
    chunk, payload = plan.chunk, plan.payload
    pcie = plan.media.index("pcie")

    for i, kind in enumerate(plan.kind_code):
        if kind == K_COPY:
            des_id = dag.add(
                ("sync", "plan", rank[i], tree[i]),
                duration=0.0,
                src=rank[i],
                dst=rank[i],
                chunk=chunk[i],
                phase=PHASES[plan.phase_code[i]],
                tree=tree[i],
                label=plan.label_of(i),
            )
            done[i] = des_id
            plan_deps_of[des_id] = (i,)
        elif kind == K_SEND:
            recv = partner[i]
            if recv < 0:
                raise PlanError(f"{plan.name_of(i)}: unmatched send")
            src, dst = rank[i], peer[i]
            if plan.legalized:
                if plan.medium_code[i] == pcie:
                    resource = pcie_key(src, dst)
                else:
                    resource = chan_key(src, dst, lane[i])
            else:
                resource = edge_key(src, dst, lane[i])
            des_id = dag.add(
                resource,
                nbytes=payload[i],
                src=src,
                dst=dst,
                chunk=chunk[i],
                chunk_set=plan.chunk_sets.get(i, ()),
                phase=PHASES[plan.phase_code[i]],
                tree=tree[i],
                label=plan.label_of(i),
            )
            done[i] = des_id
            done[recv] = des_id
            plan_deps_of[des_id] = (i, recv)
            # A relay hop (receiver is not the flow's final destination)
            # charges the intermediate GPU's forwarding kernel; it does
            # not delay the data path (GPUDirect forwarding pipelines).
            if plan.is_relay(recv):
                dag.add(
                    gpu_key(rank[recv]),
                    duration=payload[i] / FORWARDING_COPY_BANDWIDTH,
                    deps=(des_id,),
                    src=src,
                    dst=rank[recv],
                    chunk=chunk[i],
                    phase=Phase.OTHER,
                    tree=tree[i],
                    label=Label.FORWARD,
                )
        # RECV/REDUCE are lowered with their paired send.

    # Second pass: resolve plan-level deps to DES ids (a dep may map to
    # a transfer created after the dependent op when the paired send has
    # a higher id than the recv), writing each op's deps once.
    offsets, dep_ids = plan.dep_offsets, plan.dep_ids
    dag.set_deps({
        des_id: sorted({
            done[d] for i in ops for d in dep_ids[offsets[i]:offsets[i + 1]]
        })
        for des_id, ops in plan_deps_of.items()
    })

    dag.validate()
    return dag


def physical_resources(dag: Dag, topo: PhysicalTopology) -> dict:
    """The resource map a lowered, legalized plan runs on: ``topo``'s
    channels and GPUs, a host-path channel per PCIe hop (the DGX-1's
    PCIe alpha and bandwidth), and a default processor for every other
    key (sync markers)."""
    resources = topo.to_resources()
    for key in dag.resources():
        if key in resources:
            continue
        if isinstance(key, tuple) and key and key[0] == "pcie":
            resources[key] = Channel(
                alpha=PCIE_ALPHA,
                beta=1.0 / PCIE_BANDWIDTH,
                name=f"pcie {key[1]}->{key[2]}",
            )
        else:
            resources[key] = Processor(name=str(key))
    return resources


@dataclass
class PlanOutcome:
    """Simulated timing of a lowered plan.

    Attributes:
        plan: the simulated plan.
        dag: the lowered DES DAG.
        sim: raw per-op timings.
        total_time: finish time of the last transfer — comparable to
            :attr:`repro.collectives.base.AllReduceOutcome.total_time`.
    """

    plan: Plan
    dag: Dag
    sim: SimResult
    total_time: float
    notes: list[str] = field(default_factory=list)


def simulate_plan(
    plan: Plan,
    *,
    topo: PhysicalTopology | None = None,
    fabric: FabricSpec | None = None,
    router: Router | None = None,
) -> PlanOutcome:
    """Simulate a plan analytically on a fabric or a physical topology.

    With ``topo``, an unlegalized plan is first route-legalized (via
    :func:`repro.plan.passes.compile_plan`); channels come from the
    topology and PCIe-fallback hops get host-path channels.

    With ``fabric``, the plan's logical edges get uniform alpha/beta
    channels, lanes folded modulo ``fabric.lanes`` — identical to
    :func:`repro.collectives.base.simulate_on_fabric`.
    """
    if (topo is None) == (fabric is None):
        raise PlanError("pass exactly one of topo= or fabric=")
    target = topo if topo is not None else fabric
    if plan.nnodes > target.nnodes:
        raise EmbeddingError(
            f"a {plan.nnodes}-rank plan does not fit on "
            f"{target.nnodes} GPUs of {target.name!r}"
        )

    notes: list[str] = []
    if topo is not None:
        if not plan.legalized:
            from .passes import compile_plan

            plan, reports = compile_plan(plan, topo, router=router)
            notes.extend(reports.notes)
        dag = lower_to_dag(plan)
        resources = physical_resources(dag, topo)
    else:
        dag = fold_lanes(lower_to_dag(plan), fabric.lanes)
        resources = abstract_resources(
            dag, alpha=fabric.alpha, beta=fabric.beta
        )

    sim = DagSimulator(resources).run(dag)
    # Payload transfers and zero-duration markers (NaN: no duration).
    transfer_finish = [
        finish
        for finish, nbytes, duration in zip(sim.finish, dag.nbytes, dag.duration)
        if nbytes > 0 or duration == 0.0
    ]
    if not transfer_finish:
        raise PlanError("plan lowered to no timed operations")
    return PlanOutcome(
        plan=plan,
        dag=dag,
        sim=sim,
        total_time=max(transfer_finish),
        notes=notes,
    )

