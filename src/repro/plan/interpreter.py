"""Execute a verified plan on the thread-backed runtime.

One persistent kernel (thread) per ``(rank, tb)`` thread block walks its
program in op-id order — a list of flat instruction tuples compiled from
the plan's columns when the interpreter is built, so a run reads no
plan op; transfers ride :class:`repro.runtime.cluster._Wire`
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
from array import array
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..errors import ConfigError, RuntimeClusterError
from ..runtime.cluster import KernelPool, _transmit, _Wire
from ..runtime.faults import FaultPlan, PhaseBoard, apply_gpu_fault
from ..runtime.memory import ChunkLayout, GradientBuffer
from ..runtime.sync import AbortCell, DeviceEvent, SpinConfig
from .ir import K_COPY, K_RECV, K_REDUCE, K_SEND, Plan
from .verifier import (
    REDUCE_LIKE_CODES,
    VerifyReport,
    WirePairing,
    execution_order,
    match_wires,
    prove_send_aliasing,
    relay_key,
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

    Construction proves which wires may alias (see the module
    docstring) and compiles each thread block's program into flat
    instruction tuples, reading the plan's columns once; every ``run``
    reuses them and reads no plan op.
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
        #: Wire key -> every chunk its SENDs carry, in FIFO order.
        self._wire_chunks = {
            key: [c for s in send_ids for c in plan.chunks_of(s)]
            for key, send_ids in self._wire_sends.items()
        }
        self._compile(report.pairing)

    def _compile(self, pairing: WirePairing) -> None:
        """Flatten each thread block's program into instruction tuples.

        ``self._programs`` maps ``(rank, tb)`` to a list of ``(op id,
        kind code, wire index, chunks, relay stash key or None, event
        waits, event to set or -1, reduce position for the GPU fault
        hook or -1, tree)``; wire indexes follow ``self._wire_keys``,
        event indexes ``self._event_ops``.
        """
        plan = self.plan
        keys = list(self._wire_sends)
        wire_of = array("i", [-1]) * len(plan)
        for w, (send_ids, recv_ids) in enumerate(pairing.wires.values()):
            for i in send_ids:
                wire_of[i] = w
            for i in recv_ids:
                wire_of[i] = w
        programs = plan.program_ids()
        home = array("i", [0]) * len(plan)
        for b, ids in enumerate(programs.values()):
            for i in ids:
                home[i] = b
        # Deps on another thread block's op wait on a per-run event.
        offsets, dep_ids = plan.dep_offsets, plan.dep_ids
        event_of: dict[int, int] = {}
        waits: dict[int, tuple[int, ...]] = {}
        for i, b in enumerate(home):
            lo, hi = offsets[i], offsets[i + 1]
            if lo == hi:
                continue
            cross = [d for d in dep_ids[lo:hi] if home[d] != b]
            if cross:
                waits[i] = tuple(
                    event_of.setdefault(d, len(event_of)) for d in cross
                )
        chunk_lists, relays = plan.chunk_lists(), plan.relay_ids()
        kinds, phases, trees = plan.kind_code, plan.phase_code, plan.tree
        compiled = {}
        for (rank, tid), ids in programs.items():
            prog = []
            reduce_pos = -1
            seen_chunk: int | None = None
            for i in ids:
                chunks = chunk_lists[i]
                fault_pos = -1
                if (
                    phases[i] in REDUCE_LIKE_CODES
                    and chunks and chunks[0] != seen_chunk
                ):
                    seen_chunk = chunks[0]
                    reduce_pos += 1
                    fault_pos = reduce_pos
                prog.append((
                    i,
                    kinds[i],
                    wire_of[i],
                    chunks,
                    relay_key(plan, i) if i in relays else None,
                    waits.get(i, ()),
                    event_of.get(i, -1),
                    fault_pos,
                    trees[i],
                ))
            compiled[(rank, plan.tbs[tid])] = prog
        self._wire_keys = keys
        self._event_ops = list(event_of)
        self._programs = compiled

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
        wires: dict[tuple, _Wire] = {}
        injectors: dict[tuple, object] = {}
        for key, carried in self._wire_chunks.items():
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
        fault_plan = self.fault_plan
        armed = fault_plan is not None
        active_ops: dict[tuple, int] = {}
        if armed:
            abort.register_dump(
                "plan fault stats", fault_plan.stats.describe
            )

            def dump_active_ops() -> str:
                return "\n".join(
                    f"g{key[0]} tb {key[1]!r}: {plan.name_of(op_id)} "
                    f"origin={plan.origin_of(op_id) or '-'}"
                    for key, op_id in sorted(
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

        wire_map, injector_map = self._build_wires(run_spin, buffers)
        keys = self._wire_keys
        wires = [wire_map[key] for key in keys]
        injectors = [injector_map.get(key) for key in keys]
        aliased = [key in self._aliased for key in keys]

        # Per-op completion events for deps that cross thread blocks —
        # DeviceEvents, so they honor the abort flag/timeout and emit
        # happens-before edges like every other primitive; each is
        # named after its op only when a diagnostic reads the name.
        events = [
            DeviceEvent(run_spin, name=partial(plan.name_of, op_id))
            for op_id in self._event_ops
        ]

        def make_kernel(key: tuple, prog: list[tuple]):
            rank = key[0]
            buffer = buffers[rank]

            def kernel() -> None:
                board.set(rank, f"start tb {key[1]!r}")
                # Relay forwarding: detour legs pass (payload, verified
                # checksum) through here, never through this GPU's own
                # gradient slot.  On an aliased wire the payload is a
                # view of the flow source's buffer.
                stash: dict[tuple, tuple[np.ndarray, int | None]] = {}
                for (op_id, kind, w, chunks, relay, waits, sets, fault_pos,
                     tree) in prog:
                    if armed:
                        active_ops[key] = op_id
                        if fault_pos >= 0:
                            apply_gpu_fault(
                                fault_plan, rank, tree, fault_pos,
                                board, abort, where="plan reduce",
                            )
                    for e in waits:
                        events[e].wait()
                    if kind == K_SEND:
                        wire, injector = wires[w], injectors[w]
                        for c in chunks:
                            if relay is not None:
                                try:
                                    values, checksum = stash.pop((relay, c))
                                except KeyError:
                                    raise RuntimeClusterError(
                                        f"{plan.name_of(op_id)}: relay "
                                        f"forwards chunk {c} before "
                                        "receiving it"
                                    ) from None
                            else:
                                values = buffer.read_view(c)
                                checksum = None
                            _transmit(
                                wire, c, values, injector, abort, checksum
                            )
                    elif kind == K_REDUCE:
                        wire = wires[w]
                        for c in chunks:
                            buffer.accumulate(c, wire.take_view(c))
                    elif kind == K_RECV:
                        wire = wires[w]
                        for c in chunks:
                            if relay is not None:
                                # On a staging wire, a copy: the stash
                                # outlives this op, and the wire may
                                # deliver the chunk again.  An aliased
                                # wire's source stays put until the
                                # final consumer read it (the proof).
                                stash[(relay, c)] = (
                                    wire.take_frame(c) if aliased[w]
                                    else (wire.take(c), None)
                                )
                            else:
                                buffer.overwrite(c, wire.take_view(c))
                    if sets >= 0:
                        events[sets].set()

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
                fault_plan.stats.snapshot() if fault_plan else {}
            ),
            leftover_frames=sum(len(wire._frames) for wire in wires),
            staged_bytes=sum(
                wire._data.nbytes for wire, alias in zip(wires, aliased)
                if not alias
            ),
        )
