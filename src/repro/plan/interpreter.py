"""Execute a verified plan on the thread-backed runtime.

One persistent kernel (thread) per ``(rank, tb)`` thread block walks its
program in op-id order; transfers ride :class:`repro.runtime.cluster._Wire`
frame queues (CRC-checked, fault-injectable via a
:class:`~repro.runtime.faults.FaultPlan`), cross-thread-block deps ride
per-op events, and the whole pool fails fast through the shared
:class:`~repro.runtime.sync.AbortCell` exactly like the tree runtime.
Ring and halving-doubling AllReduce run only here.

Because every wire's capacity equals its total send count, sends never
block; the verifier's combined-graph acyclicity is therefore a static
deadlock-freedom proof for this interpreter.

Wires are zero-copy wherever a static proof allows it:
:func:`~repro.plan.verifier.prove_send_aliasing` checks, once per
interpreter and on the happens-before graph the plan's verification
report already holds, that no SEND's source chunk is rewritten before
its final consumer reads it.  A wire whose SENDs all pass aliases the
sending rank's gradient buffer (the flow source's, on a detour's relay
legs): the sender publishes a frame, relays verify and republish in
place, and the receiver reduces or copies straight from the sender's
memory.  Only wires carrying a rejected SEND (a ``PLAN012`` note) stage
a copy of the chunks they carry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError, RuntimeClusterError
from ..runtime.cluster import KernelPool, _transmit, _Wire
from ..runtime.faults import FaultPlan, PhaseBoard, apply_gpu_fault
from ..runtime.memory import ChunkLayout, GradientBuffer
from ..runtime.sync import AbortCell, DeviceEvent, SpinConfig
from .ir import COPY, RECV, REDUCE, SEND, Plan, PlanOp
from .verifier import (
    REDUCE_LIKE,
    VerifyReport,
    execution_order,
    is_relay,
    match_wires,
    prove_send_aliasing,
    verify_plan,
)

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
    order = execution_order(plan, pairing)

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
        for op_id in order:
            op = plan.op(op_id)
            if op.kind == SEND:
                relay = is_relay(op)
                for c in op.chunks_carried():
                    if relay:
                        values = stash.pop((op.rank, op.flow, op.tree,
                                            op.phase, c))
                    else:
                        values = buffers[op.rank][layout.slice_of(c)].copy()
                    queues.setdefault((op.wire_key(), c), []).append(values)
            elif op.kind == REDUCE:
                for c in op.chunks_carried():
                    values = queues[(op.wire_key(), c)].pop(0)
                    buffers[op.rank][layout.slice_of(c)] += values
            elif op.kind == RECV:
                relay = is_relay(op)
                for c in op.chunks_carried():
                    values = queues[(op.wire_key(), c)].pop(0)
                    if relay:
                        stash[(op.rank, op.flow, op.tree, op.phase, c)] = (
                            values
                        )
                    else:
                        buffers[op.rank][layout.slice_of(c)] = values
        return buffers[0]

    return reduce


def wire_tag(wire_key: tuple) -> str:
    """Human-readable link tag for a wire (fault-plan matchable)."""
    src, dst, tree, phase, flow = wire_key
    tag = f"plan {phase.value} t{tree} {src}->{dst}"
    if flow is not None:
        tag += f" flow {flow[0]}->{flow[1]}"
    return tag


@dataclass
class PlanRunReport:
    """Result of one interpreted plan execution.

    Attributes:
        outputs: per-GPU gradient arrays after the collective.
        layout: the element layout used.
        wall_time: wall-clock seconds for the run.
        fault_stats: injected-fault counters (empty without a plan).
        leftover_frames: frames still sitting in wires after every
            kernel finished — 0 for any well-formed plan; a positive
            count means some SEND was never consumed (the runtime
            symptom of a dropped or duplicated op).
        staged_bytes: link memory the run allocated — the staging of
            the wires that carry a ``PLAN012``-rejected SEND; 0 when
            every wire aliases a gradient buffer.
    """

    outputs: list[np.ndarray]
    layout: ChunkLayout
    wall_time: float
    fault_stats: dict = field(default_factory=dict)
    leftover_frames: int = 0
    staged_bytes: int = 0


class PlanInterpreter:
    """Runs any verified :class:`~repro.plan.ir.Plan` on threads.

    Args:
        plan: the plan to execute.
        total_elems: gradient length (used to build the default layout).
        layout: explicit layout override (must have ``plan.nchunks``
            chunks).
        spin: spin/timeout configuration for semaphore waits.
        fault_plan: optional fault injection (link faults matched against
            ``plan <phase> t<tree> <src>-><dst>`` tags, GPU faults fired
            in reduce-phase thread blocks like the tree runtime).
        report: ``plan``'s :func:`~repro.plan.verifier.verify_plan`
            report, trusted as it is (a failing one still runs; the
            mutation fuzzer does so on purpose).  When omitted, the plan
            is verified here and a failing one raises — an unverified
            plan may deadlock.

    Construction groups the thread-block programs and proves which
    wires may alias (see the module docstring); every ``run`` reuses
    them.
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
        if layout.nchunks != plan.nchunks:
            raise ConfigError(
                f"layout has {layout.nchunks} chunks, plan has "
                f"{plan.nchunks}"
            )
        if report is None:
            report = verify_plan(plan)
        self.plan = plan
        self.layout = layout
        self.spin = spin or SpinConfig()
        self.fault_plan = fault_plan
        self.abort_cell: AbortCell | None = None
        self.phase_board: PhaseBoard | None = None
        self._wire_sends = {
            key: send_ids
            for key, (send_ids, _) in report.pairing.wires.items()
        }
        proof = prove_send_aliasing(plan, report)
        #: Wire keys that alias the sender's gradient buffer.
        self._aliased = frozenset(
            key for key, send_ids in self._wire_sends.items()
            if proof.aliases(send_ids)
        )
        self._programs = plan.programs()
        home = {
            op.op_id: key
            for key, prog in self._programs.items()
            for op in prog
        }
        #: op id -> the deps it waits on in other thread blocks (each
        #: such dep gets a per-run completion event).
        self._awaits = {
            op.op_id: cross
            for op in plan.ops
            if (cross := tuple(
                d for d in op.deps if home[d] != home[op.op_id]
            ))
        }

    @property
    def nnodes(self) -> int:
        """Rank count: the range of dense plan ranks
        :func:`~repro.runtime.elastic.detect_dead_gpus` scans."""
        return self.plan.nnodes

    # -- execution -------------------------------------------------------

    def _build_wires(
        self, spin: SpinConfig, buffers: list[GradientBuffer]
    ) -> tuple[dict[tuple, _Wire], dict[tuple, object]]:
        """One wire per paired link — aliasing the source rank's buffer
        where the proof allows, else staged for the chunks its SENDs
        carry; returns (wires, fault injectors) keyed by wire key."""
        plan = self.plan
        wires: dict[tuple, _Wire] = {}
        injectors: dict[tuple, object] = {}
        for key, send_ids in self._wire_sends.items():
            carried = [
                c for s in send_ids for c in plan.op(s).chunks_carried()
            ]
            tag = wire_tag(key)
            owner = None
            if key in self._aliased:
                src, _dst, _tree, _phase, flow = key
                owner = buffers[flow[0] if flow is not None else src]
            wires[key] = _Wire(
                self.layout,
                capacity=max(1, len(carried)),
                spin=spin,
                name=tag,
                chunks=carried,
                buffer=owner.data if owner is not None else None,
                owner_buffer=owner,
                zero_copy=owner is not None,
            )
            if self.fault_plan is not None:
                injectors[key] = self.fault_plan.link_injector(tag)
        return wires, injectors

    def run(
        self, inputs: list[np.ndarray], *, in_place: bool = False
    ) -> PlanRunReport:
        """Execute the plan over ``inputs`` (one array per GPU).

        Args:
            inputs: per-GPU gradient arrays, all the same length.
            in_place: hand the input arrays over as the GPUs' gradient
                buffers (see :meth:`TreeAllReduceRuntime.run
                <repro.runtime.allreduce.TreeAllReduceRuntime.run>`);
                off by default, so ``inputs`` stay untouched.

        Raises:
            AbortedError: a kernel crashed or stalled and the cluster
                aborted fail-fast (carries the diagnostic dump).
        """
        plan = self.plan
        if len(inputs) != plan.nnodes:
            raise ConfigError(
                f"expected {plan.nnodes} input arrays, got {len(inputs)}"
            )
        if {len(a) for a in inputs} != {self.layout.total_elems}:
            raise ConfigError("all inputs must match the layout size")

        abort = AbortCell()
        board = PhaseBoard(plan.nnodes)
        abort.register_dump("per-GPU last-known phase", board.dump)
        self.abort_cell = abort
        self.phase_board = board
        run_spin = replace(self.spin, abort=abort)

        # Fault-armed diagnostics: when a fault plan is live, the abort
        # dump carries the injector counters and, per thread block, the
        # last plan op in flight with its builder/pass provenance — so a
        # post-mortem on an interpreted segment names the op *and* the
        # compiler phase that produced it.  Unarmed runs skip all of it
        # (the hot path pays one attribute check per kernel).
        armed = self.fault_plan is not None
        active_ops: dict[tuple, str] = {}
        if armed:
            abort.register_dump(
                "plan fault stats", self.fault_plan.stats.describe
            )

            def dump_active_ops() -> str:
                return "\n".join(
                    f"g{key[0]} tb {key[1]!r}: {line}"
                    for key, line in sorted(
                        active_ops.items(), key=lambda kv: repr(kv[0])
                    )
                ) or "no plan op started"

            abort.register_dump(
                "active plan op (origin provenance)", dump_active_ops
            )

        buffers = [
            GradientBuffer(a, self.layout, owner=g, copy=not in_place)
            for g, a in enumerate(inputs)
        ]

        wires, injectors = self._build_wires(run_spin, buffers)
        aliased = self._aliased

        # Per-op completion events for deps that cross thread blocks —
        # DeviceEvents, so they honor the abort flag/timeout and emit
        # happens-before edges like every other primitive.
        awaits = self._awaits
        events = {
            d: DeviceEvent(run_spin, name=plan.op(d).name())
            for deps in awaits.values() for d in deps
        }

        def make_kernel(key: tuple, prog: list[PlanOp]):
            rank = key[0]

            def kernel() -> None:
                board.set(rank, f"start tb {key[1]!r}")
                reduce_pos = -1
                seen_chunk: int | None = None
                # Relay forwarding: detour legs pass (payload, verified
                # checksum) through here, never through this GPU's own
                # gradient slot.  On an aliased wire the payload is a
                # view of the flow source's buffer.
                stash: dict[tuple, tuple[np.ndarray, int | None]] = {}
                for op in prog:
                    if armed:
                        active_ops[key] = (
                            f"{op.name()} origin={op.origin or '-'}"
                        )
                    if (
                        op.phase in REDUCE_LIKE
                        and op.chunks_carried()
                        and op.chunks_carried()[0] != seen_chunk
                    ):
                        seen_chunk = op.chunks_carried()[0]
                        reduce_pos += 1
                        apply_gpu_fault(
                            self.fault_plan, rank, op.tree, reduce_pos,
                            board, abort, where="plan reduce",
                        )
                    for dep in awaits.get(op.op_id, ()):
                        events[dep].wait()
                    if op.kind == SEND:
                        wire = wires[op.wire_key()]
                        injector = injectors.get(op.wire_key())
                        relay = is_relay(op)
                        for c in op.chunks_carried():
                            if relay:
                                try:
                                    values, checksum = stash.pop(
                                        (op.flow, op.tree, op.phase, c)
                                    )
                                except KeyError:
                                    raise RuntimeClusterError(
                                        f"{op.name()}: relay forwards "
                                        f"chunk {c} before receiving it"
                                    ) from None
                            else:
                                values = buffers[rank].read_view(c)
                                checksum = None
                            _transmit(
                                wire, c, values, injector, abort, checksum
                            )
                    elif op.kind == REDUCE:
                        wire = wires[op.wire_key()]
                        for c in op.chunks_carried():
                            buffers[rank].accumulate(c, wire.take_view(c))
                    elif op.kind == RECV:
                        wire = wires[op.wire_key()]
                        relay = is_relay(op)
                        for c in op.chunks_carried():
                            if relay:
                                # On a staging wire, a copy: the stash
                                # outlives this op, and the wire may
                                # deliver the chunk again.  An aliased
                                # wire's source stays put until the
                                # final consumer read it (the proof).
                                stash[(op.flow, op.tree, op.phase, c)] = (
                                    wire.take_frame(c)
                                    if op.wire_key() in aliased
                                    else (wire.take(c), None)
                                )
                            else:
                                buffers[rank].overwrite(c, wire.take_view(c))
                    elif op.kind == COPY:
                        pass
                    if op.op_id in events:
                        events[op.op_id].set()

            return kernel

        pool = KernelPool(join_timeout=self.spin.timeout * 2, abort=abort)
        for key, prog in self._programs.items():
            pool.add(f"plan g{key[0]} tb {key[1]!r}", make_kernel(key, prog))

        started = time.monotonic()
        pool.run()
        elapsed = time.monotonic() - started
        return PlanRunReport(
            outputs=[buf.data for buf in buffers],
            layout=self.layout,
            wall_time=elapsed,
            fault_stats=(
                self.fault_plan.stats.snapshot() if self.fault_plan else {}
            ),
            leftover_frames=sum(
                len(wire._frames) for wire in wires.values()
            ),
            staged_bytes=sum(
                wire._data.nbytes for key, wire in wires.items()
                if key not in aliased
            ),
        )
