"""Sim-side ordering oracle: the runtime's happens-before model,
asserted on DES traces.

The thread-backed runtime is sanitized by a vector-clock tracer; the
discrete-event simulator shares the plan IR but not the tracer, so
nothing stopped a lowering bug from silently simulating an ordering the
runtime would reject (a misordered FIFO frame raises
:class:`~repro.errors.LinkFaultError`; an unpublished chunk is a race).
This oracle closes that gap: given a plan, its lowered DAG, and the
simulated trace, it checks the *same* invariants the runtime enforces
dynamically —

- **dependence respect**: no op starts before every dep finished
  (guards the engine itself);
- **mutual exclusion**: no resource serves two ops at once;
- **FIFO per wire**: transfers riding one logical wire
  (``(src, dst, tree, phase, flow)``, exactly the runtime's framed
  ``_Wire``) start in plan program order — the order the receiver's
  sequence-number check demands;
- **reduce before broadcast, per chunk**: no broadcast/all-gather
  transfer of a chunk starts before every reduce/reduce-scatter
  transfer carrying that chunk has finished — the dataflow fact that
  makes the broadcast payload the *full* sum.

It is the DES-side reference for :func:`~repro.plan.verifier.verify_plan`,
which proves the two orderings statically.  Its callers keep sim,
verifier and runtime from drifting: the ``ordered`` column of the
``ext_plans`` and ``ext_synth`` experiments, which their registry claims
require on every row next to ``verified``, and the analyzer, elastic
and synthesis tests, which compare the two verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.plan.ir import SEND, Plan
from repro.plan.verifier import BROADCAST_LIKE, REDUCE_LIKE
from repro.sim.dag import Dag
from repro.sim.engine import SimResult
from repro.sim.trace import overlapping_pairs

__all__ = ["OrderingReport", "check_plan_ordering"]

#: Timing slack for float comparisons on simulated clocks.
_EPS = 1e-12


@dataclass
class OrderingReport:
    """Verdict of the ordering oracle over one simulated plan.

    Attributes:
        ok: no violation found.
        errors: human-readable violations (empty when ok).
        transfers: transfer ops checked.
        wires: FIFO wires checked.
        chunks: chunks checked for reduce-before-broadcast.
    """

    errors: list[str] = field(default_factory=list)
    transfers: int = 0
    wires: int = 0
    chunks: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> str:
        head = (
            f"sim ordering: {self.transfers} transfers, "
            f"{self.wires} wires, {self.chunks} chunks"
        )
        if self.ok:
            return head + " — ok"
        return "\n".join([head] + [f"  {e}" for e in self.errors])


def _map_transfers(plan: Plan, dag: Dag) -> list[tuple]:
    """Pair each plan SEND with its lowered DES transfer op.

    :func:`repro.plan.lowering.lower_to_dag` emits exactly one timed
    transfer per SEND (the paired RECV/REDUCE merges into it), in plan
    op order; forwarding/compute charges are duration-only ops with
    ``nbytes == 0``.  That makes the mapping a positional zip — and any
    count mismatch means the DAG was not lowered from this plan.
    """
    sends = [op for op in plan.ops if op.kind == SEND]
    transfers = [op for op in dag.ops if op.nbytes > 0]
    if len(sends) != len(transfers):
        raise SimulationError(
            f"plan/DAG mismatch: {len(sends)} plan sends vs "
            f"{len(transfers)} simulated transfers — was this DAG "
            f"lowered from this plan?"
        )
    for send, des in zip(sends, transfers):
        if (send.rank, send.peer) != (des.src, des.dst):
            raise SimulationError(
                f"plan/DAG mismatch at {send.name()}: simulated transfer "
                f"moves {des.src}->{des.dst}, plan says "
                f"{send.rank}->{send.peer}"
            )
    return list(zip(sends, transfers))


def check_plan_ordering(
    plan: Plan, dag: Dag, sim: SimResult
) -> OrderingReport:
    """Assert the simulated trace obeys the runtime's ordering model.

    Args:
        plan: the plan that was lowered (legalized or logical).
        dag: the DAG actually simulated (post lane folding is fine —
            only op order and timings matter here).
        sim: the :class:`~repro.sim.engine.SimResult` of running it.
    """
    report = OrderingReport()

    # 1. Engine sanity: dependence respect.
    for op in dag.ops:
        for dep in op.deps:
            if sim.start[op.op_id] < sim.finish[dep] - _EPS:
                report.errors.append(
                    f"op {op.op_id} ({op.label or op.resource}) starts at "
                    f"{sim.start[op.op_id]:.3e} before dep {dep} finishes "
                    f"at {sim.finish[dep]:.3e}"
                )

    # 2. Mutual exclusion per resource.
    for prev, cur in overlapping_pairs(sim.trace):
        report.errors.append(
            f"resource {prev.resource!r} serves op {prev.op_id} "
            f"[{prev.start:.3e}, {prev.finish:.3e}] and op {cur.op_id} "
            f"[{cur.start:.3e}, {cur.finish:.3e}] concurrently"
        )

    pairs = _map_transfers(plan, dag)
    report.transfers = len(pairs)

    # 3. FIFO per wire: simulated start order must equal plan program
    # order on every wire (the runtime's frame sequence check).
    wires: dict[tuple, list[tuple]] = {}
    for send, des in pairs:
        wires.setdefault(send.wire_key(), []).append((send, des))
    report.wires = len(wires)
    for key, members in wires.items():
        # members is in plan op-id order by construction.
        for (s_a, d_a), (s_b, d_b) in zip(members, members[1:]):
            if sim.start[d_b.op_id] < sim.start[d_a.op_id] - _EPS:
                report.errors.append(
                    f"wire {key!r}: {s_b.name()} starts at "
                    f"{sim.start[d_b.op_id]:.3e} before earlier "
                    f"{s_a.name()} at {sim.start[d_a.op_id]:.3e} "
                    f"(frames would arrive out of sequence)"
                )

    # 4. Reduce-before-broadcast per chunk: a broadcast-like transfer
    # carrying chunk c may not start until every reduce-like transfer
    # carrying c has finished (otherwise the payload cannot be the full
    # sum — the exact window the dropped-post seeded kernel races in).
    last_reduce: dict[int, tuple[float, object]] = {}
    for send, des in pairs:
        if send.phase in REDUCE_LIKE:
            for chunk in send.chunks_carried():
                t = sim.finish[des.op_id]
                if chunk not in last_reduce or t > last_reduce[chunk][0]:
                    last_reduce[chunk] = (t, send)
    report.chunks = len(last_reduce)
    for send, des in pairs:
        if send.phase not in BROADCAST_LIKE:
            continue
        for chunk in send.chunks_carried():
            bound = last_reduce.get(chunk)
            if bound is None:
                continue
            t_reduce, reducer = bound
            if sim.start[des.op_id] < t_reduce - _EPS:
                report.errors.append(
                    f"chunk {chunk}: broadcast {send.name()} starts at "
                    f"{sim.start[des.op_id]:.3e} before its last reduce "
                    f"{reducer.name()} finishes at {t_reduce:.3e}"
                )
    return report
