"""Execute a verified plan on the thread-backed runtime.

:class:`PlanInterpreter` compiles a plan (:mod:`repro.plan.compiler`)
and runs the program on :class:`~repro.runtime.executor.Executor`, the
engine every collective runs on.  Wires alias the sender's buffer
wherever :func:`~repro.plan.verifier.prove_send_aliasing` shows no
SEND's source chunk is rewritten before its final consumer reads it;
only wires carrying a rejected SEND (a ``PLAN012`` note) stage a copy.
:func:`plan_reduce_order` is the serial oracle: the same summation in
the same order, single-threaded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..runtime.executor import Executor, RunReport
from ..runtime.memory import ChunkLayout
from ..runtime.sync import SpinConfig
from .compiler import _compile
from .ir import K_COPY, K_REDUCE, K_SEND, Plan
from .verifier import (
    VerifyReport,
    execution_order,
    match_wires,
    relay_key,
    verify_plan,
)

if TYPE_CHECKING:
    from ..runtime.faults import FaultPlan

__all__ = [
    "PlanRunReport",
    "PlanInterpreter",
    "default_plan_layout",
    "plan_reduce_order",
]


def default_plan_layout(plan: Plan, total_elems: int) -> ChunkLayout:
    """The element layout matching the plan's chunk structure.

    Identical to the layout the tree runtime builds: the element space
    is striped over ``ntrees`` trees with ``nchunks / ntrees`` chunks
    each.
    """
    if plan.nchunks % plan.ntrees != 0:
        raise ConfigError(
            f"plan has {plan.nchunks} chunks over {plan.ntrees} trees "
            "(not divisible); pass an explicit layout"
        )
    return ChunkLayout.split(
        total_elems,
        ntrees=plan.ntrees,
        chunks_per_tree=plan.nchunks // plan.ntrees,
    )


def plan_reduce_order(
    plan: Plan,
    *,
    total_elems: int | None = None,
    layout: ChunkLayout | None = None,
):
    """Summation in the exact order the interpreted plan reduces.

    The serial analogue of :func:`~repro.runtime.training.tree_reduce_order`
    for compiled plans: replays the plan's ops in the verifier's combined-
    graph topological order on plain float64 buffers, with per-wire FIFO
    queues and the interpreter's relay-stash semantics.  PLAN005 race
    freedom guarantees every linearization of that graph performs the
    same per-slot access sequence, so this single-threaded replay is
    bit-identical to the threaded :class:`PlanInterpreter` — the oracle
    the interpreted-segment recovery tests compare against.

    Returns a ``grads -> reduced`` callable suitable for
    :func:`~repro.runtime.training.serial_reference`'s ``reduce_order``.
    """
    if layout is None:
        if total_elems is None:
            raise ConfigError("pass total_elems or an explicit layout")
        layout = default_plan_layout(plan, total_elems)
    if layout.nchunks != plan.nchunks:
        raise ConfigError(
            f"layout has {layout.nchunks} chunks, plan has {plan.nchunks}"
        )
    pairing = match_wires(plan)
    # One step per op in execution order: (kind, rank, wire key, chunk
    # slices, relay stash key or None).
    steps = []
    for op_id in execution_order(plan, pairing):
        kind = plan.kind_code[op_id]
        if kind == K_COPY:
            continue
        relay = plan.is_relay(op_id)
        steps.append((
            kind,
            plan.rank[op_id],
            plan.wire_of(op_id),
            [(c, layout.slice_of(c)) for c in plan.chunks_of(op_id)],
            relay_key(plan, op_id) if relay else None,
        ))

    def reduce(grads: list[np.ndarray]) -> np.ndarray:
        if len(grads) != plan.nnodes:
            raise ConfigError(
                f"expected {plan.nnodes} gradient arrays, got {len(grads)}"
            )
        buffers = [
            np.asarray(g, dtype=np.float64).copy() for g in grads
        ]
        queues: dict[tuple, list[np.ndarray]] = {}
        stash: dict[tuple, np.ndarray] = {}
        for kind, rank, wire, chunks, relay in steps:
            if kind == K_SEND:
                for c, span in chunks:
                    if relay is not None:
                        values = stash.pop((rank, relay, c))
                    else:
                        values = buffers[rank][span].copy()
                    queues.setdefault((wire, c), []).append(values)
                continue
            for c, span in chunks:
                values = queues[(wire, c)].pop(0)
                if kind == K_REDUCE:
                    buffers[rank][span] += values
                elif relay is not None:
                    stash[(rank, relay, c)] = values
                else:
                    buffers[rank][span] = values
        return buffers[0]

    return reduce


#: Result of one interpreted plan execution.
PlanRunReport = RunReport


class PlanInterpreter(Executor):
    """Runs any :class:`~repro.plan.ir.Plan` on threads.

    Construction compiles the plan into an in-process program; every
    ``run`` executes it and reads no plan op.

    Args:
        plan: the plan to execute.
        total_elems: gradient length (used to build the default layout).
        layout: explicit layout override (must have ``plan.nchunks``
            chunks).
        spin: spin/timeout configuration for semaphore waits.
        fault_plan: optional fault injection (link faults matched against
            ``plan <phase> t<tree> <src>-><dst>`` tags, GPU faults fired
            in reduce-phase thread blocks).
        report: ``plan``'s :func:`~repro.plan.verifier.verify_plan`
            report, trusted as it is (a failing one still runs; the
            mutation fuzzer does so on purpose).  When omitted, the plan
            is verified here and a failing one raises — an unverified
            plan may deadlock.

    Attributes:
        plan: the plan this interpreter runs.
    """

    def __init__(
        self,
        plan: Plan,
        *,
        total_elems: int | None = None,
        layout: ChunkLayout | None = None,
        spin: SpinConfig | None = None,
        fault_plan: FaultPlan | None = None,
        report: VerifyReport | None = None,
    ):
        if layout is None:
            if total_elems is None:
                raise ConfigError("pass total_elems or an explicit layout")
            layout = default_plan_layout(plan, total_elems)
        self.plan = plan
        super().__init__(
            _compile(plan, report or verify_plan(plan)), layout, spin=spin,
            fault_plan=fault_plan,
        )

    def run(
        self, inputs: list[np.ndarray], *, in_place: bool = False
    ) -> PlanRunReport:
        """Execute the plan over ``inputs`` (one array per GPU); see
        :meth:`Executor._execute <repro.runtime.executor.Executor._execute>`
        for ``in_place`` and the fail-fast ``AbortedError``."""
        return self._execute(inputs, in_place=in_place)
