"""Static ordering prover: the DES oracle's verdicts, on the IR.

:func:`repro.sim.oracle.check_plan_ordering` asserts FIFO-per-wire and
reduce-before-broadcast on a *simulated trace* — it needs a DES run.
This module proves the same properties directly on the plan's
happens-before graph (explicit deps ∪ per-thread-block program order ∪
send→recv pairing), so a plan can be accepted or rejected without
lowering or simulating anything:

- **deadlock freedom** (``PLAN003``) — the HB graph is acyclic;
- **FIFO per wire** (``PLAN010``) — consecutive transfers on one wire
  are HB-ordered on both the send and the receive side, so no simulated
  or executed schedule can reorder frames;
- **reduce before broadcast** (``PLAN011``) — for every broadcast-like
  transfer of a chunk, every reduce-like transfer carrying that chunk
  has its *completion* (the paired RECV/REDUCE) among the broadcast's
  HB ancestors.  Since the DES merges a SEND and its partner into one
  transfer whose finish gates every HB successor, this implies the
  oracle's timing check on any dependence-respecting schedule.

Wire-pairing defects surface as ``PLAN002`` (shared with
:func:`repro.plan.verifier.match_wires`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..plan.ir import SEND, Plan
from ..plan.verifier import (
    _ancestors,
    _combined_edges,
    _topo_order,
    match_wires,
)
from ..sim.dag import Phase
from .diagnostics import Diagnostic, severity_of

__all__ = ["StaticOrderingReport", "prove_plan_ordering"]

#: Phases that produce partial sums / fully reduced chunks, and phases
#: that may only move chunks already fully reduced — the same split
#: :mod:`repro.sim.oracle` applies to simulated traces.
REDUCE_LIKE = (Phase.REDUCE, Phase.REDUCE_SCATTER)
BROADCAST_LIKE = (Phase.BROADCAST, Phase.ALL_GATHER)


@dataclass
class StaticOrderingReport:
    """Verdict of the static ordering prover over one plan.

    Attributes:
        diagnostics: every violation found (empty when proved).
        transfers: SEND ops examined.
        wires: FIFO wires examined.
        chunks: chunks examined for reduce-before-broadcast.
        order: a witness topological order of the HB graph (empty when
            a cycle was found or pairing failed).
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    transfers: int = 0
    wires: int = 0
    chunks: int = 0
    order: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def errors(self) -> list[str]:
        return [d.message for d in self.diagnostics]

    def describe(self) -> str:
        head = (
            f"static ordering: {self.transfers} transfers, "
            f"{self.wires} wires, {self.chunks} chunks"
        )
        if self.ok:
            return head + " — proved"
        return "\n".join([head] + [f"  {d}" for d in self.diagnostics])


def prove_plan_ordering(plan: Plan) -> StaticOrderingReport:
    """Prove the runtime ordering model on the plan IR, no simulation.

    Same verdicts as the DES oracle: a plan this function accepts obeys
    FIFO-per-wire and reduce-before-broadcast on *every*
    dependence-respecting schedule, a plan it rejects names the op pair
    that can misorder.
    """
    report = StaticOrderingReport()
    pairing = match_wires(plan)
    report.wires = len(pairing.wires)
    report.transfers = sum(1 for op in plan.ops if op.kind == SEND)
    if pairing.diagnostics:
        report.diagnostics.extend(pairing.diagnostics)
        return report

    preds = _combined_edges(plan, pairing)
    order, cycle_diags = _topo_order(plan, preds)
    if cycle_diags:
        report.diagnostics.extend(cycle_diags)
        return report
    report.order = order

    reach = _ancestors(preds, order)

    def happens_before(a: int, b: int) -> bool:
        return a != b and bool(reach[b] >> a & 1)

    def _diag(code: str, message: str, op) -> Diagnostic:
        return Diagnostic(
            code=code, message=message, severity=severity_of(code),
            op_id=op.op_id, op_name=op.name(), origin=op.origin,
        )

    # FIFO per wire: the k-th and (k+1)-th transfer on one wire must be
    # HB-ordered on both endpoints — otherwise some legal schedule
    # starts them out of plan order and the receiver's sequence-number
    # check rejects the frame.
    for wire, (s_ids, r_ids) in pairing.wires.items():
        for side in (s_ids, r_ids):
            for a, b in zip(side, side[1:]):
                if not happens_before(a, b):
                    op_a, op_b = plan.op(a), plan.op(b)
                    report.diagnostics.append(_diag(
                        "PLAN010",
                        f"wire {wire}: {op_a.name()} and {op_b.name()} "
                        "are not happens-before ordered — frames can "
                        "arrive out of sequence",
                        op_b,
                    ))

    # Reduce before broadcast, per chunk: a broadcast-like send of chunk
    # c must have every reduce-like transfer of c *completed* among its
    # ancestors.  Completion is the paired RECV/REDUCE (the DES merges
    # both endpoints into one transfer), so either endpoint being an
    # ancestor proves the timing bound.
    reduce_sends: dict[int, list] = {}
    broadcast_sends: dict[int, list] = {}
    for op in plan.ops:
        if op.kind != SEND:
            continue
        target = (
            reduce_sends if op.phase in REDUCE_LIKE
            else broadcast_sends if op.phase in BROADCAST_LIKE
            else None
        )
        if target is None:
            continue
        for chunk in op.chunks_carried():
            target.setdefault(chunk, []).append(op)
    report.chunks = len(reduce_sends)
    for chunk, bcasts in broadcast_sends.items():
        reducers = reduce_sends.get(chunk, [])
        for b in bcasts:
            for r in reducers:
                partner = pairing.partner.get(r.op_id)
                done = (
                    happens_before(r.op_id, b.op_id)
                    or (partner is not None
                        and happens_before(partner, b.op_id))
                )
                if not done:
                    report.diagnostics.append(_diag(
                        "PLAN011",
                        f"chunk {chunk}: broadcast {b.name()} is not "
                        f"ordered after reduce {r.name()} completes — "
                        "the payload may not be the full sum",
                        b,
                    ))
    return report
