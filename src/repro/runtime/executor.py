"""The one engine: run a compiled collective program on threads.

A :class:`Program` is what :mod:`repro.plan.compiler` makes of a plan
:func:`~repro.plan.verifier.verify_plan` passed: per thread block, flat
instruction tuples; the wires with the chunks they carry; the wires
proven safe to alias the sender's buffer; the ops another block waits
for.  It holds no plan op and no layout, so loading and running one
imports nothing from :mod:`repro.plan` or :mod:`repro.sim` (GC3's split
of compiler and runtime).  :class:`Executor` binds it to a layout and
runs one persistent kernel (thread) per ``(rank, tb)``; transfers ride
CRC-checked, fault-injectable wires whose capacity is by default their
send count (so sends never block and the verifier's acyclicity is a
deadlock-freedom proof), cross-block deps ride device events, and the
pool fails fast through one :class:`~repro.runtime.sync.AbortCell`.

A checksum is computed once per payload: relays forward the one they
verified, and a SEND reuses its block's last checksum for the chunk
where the compiler proved no write landed since.  With ``enqueue``, a
rank posts its ``(rank, tree)`` gradient-queue semaphore as each chunk
becomes final on it (its last REDUCE or RECV there); the verifier's
``PLAN013`` proves the posts come in chunk-position order, the order
:func:`~repro.runtime.queue_runtime.layer_requirements` counts in.

Every kernel stamps its progress on the run's :class:`PhaseBoard`, which
the abort dump prints.  A GPU fault fires through the
:class:`~repro.runtime.faults.FaultPlan` the executor was given, so a
run without one never imports the fault DSL.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from functools import partial
from importlib import resources
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.codes import K_RECV, K_REDUCE, K_SEND
from repro.errors import ConfigError, RuntimeClusterError
from repro.runtime.cluster import KernelPool, _transmit, _Wire
from repro.runtime.memory import ChunkLayout, GradientBuffer
from repro.runtime.sync import (
    AbortCell, DeviceEvent, DeviceSemaphore, SpinConfig,
)

if TYPE_CHECKING:
    from repro.runtime.faults import FaultPlan

__all__ = [
    "Executor",
    "PhaseBoard",
    "Program",
    "RunReport",
    "edge_tag",
    "program_filename",
    "program_key",
    "shipped_program",
    "wire_tag",
]

#: Version of the program JSON layout.
FORMAT = 1


@dataclass(frozen=True)
class Program:
    """A plan compiled for the executor.

    Attributes:
        nnodes / nchunks / ntrees: ranks, chunks, and the trees the
            chunks are striped over (``nchunks // ntrees`` each).
        blocks: ``((rank, tb), instructions)`` per thread block; an
            instruction is ``(op id, kind code, wire, chunks, relay
            stash key or None, event waits, event to set or -1, GPU
            fault position or -1, tree, chunks made final here, reuse
            the block's checksum)``.
        wires: ``((src, dst, tree, phase, flow), carried chunks)``.
        aliased: indexes of the wires that alias the sender's buffer.
        events: op id of each cross-block event.
        names / origins: each op's diagnostic name and builder/pass
            provenance, by op id — or the plan's ``name_of`` /
            ``origin_of`` in a program compiled for in-process use.
        plan_sha256 / report_sha256: digests of the plan's JSON and of
            the verification facts the compiler read — "" in a program
            compiled for in-process use, which never serialises.
        key: the tree-runtime configuration a shipped program serves.
    """

    nnodes: int
    nchunks: int
    ntrees: int
    blocks: tuple
    wires: tuple
    aliased: frozenset
    events: tuple
    names: tuple | Callable[[int], str]
    origins: tuple | Callable[[int], str]
    plan_sha256: str
    report_sha256: str
    key: dict | None = None

    def name_of(self, op_id: int) -> str:
        names = self.names
        return names(op_id) if callable(names) else names[op_id]

    def origin_of(self, op_id: int) -> str:
        origins = self.origins
        return origins(op_id) if callable(origins) else origins[op_id]

    def to_json(self) -> str:
        """Deterministic one-line JSON of every field."""
        if not self.plan_sha256:
            raise ConfigError(
                "only a portable program serialises (see "
                "repro.plan.compiler.tree_program)"
            )
        data = {"format": FORMAT}
        data.update((f.name, getattr(self, f.name)) for f in fields(self))
        data["aliased"] = sorted(self.aliased)
        return json.dumps(data, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str) -> "Program":
        data = json.loads(text)
        if data.pop("format", None) != FORMAT:
            raise ConfigError(f"not a format-{FORMAT} program")
        # Instructions stay lists (the executor only unpacks them); a
        # relay stash key must hash, so it becomes a tuple.
        for _, instrs in data["blocks"]:
            for ins in instrs:
                if ins[4] is not None:
                    ins[4] = tuple(ins[4])
        data["blocks"] = tuple(
            ((rank, tuple(tb) if isinstance(tb, list) else tb), instrs)
            for (rank, tb), instrs in data["blocks"]
        )
        data["wires"] = tuple(
            ((*key[:4], key[4] and tuple(key[4])), tuple(chunks))
            for key, chunks in data["wires"]
        )
        for name in ("events", "names", "origins"):
            data[name] = tuple(data[name])
        data["aliased"] = frozenset(data["aliased"])
        return Program(**data)


def program_key(
    trees, *, chunks_per_tree: int, overlapped: bool,
    detour_map: dict[tuple[int, int], int],
) -> dict:
    """A tree-runtime configuration as JSON-ready data."""
    return {
        "trees": [
            [tree.root, [[n, list(tree.children[n])] for n in tree.nodes]]
            for tree in trees
        ],
        "detours": sorted([c, p, v] for (c, p), v in detour_map.items()),
        "chunks_per_tree": chunks_per_tree,
        "overlapped": overlapped,
    }


def program_filename(key: dict) -> str:
    """Where the shipped program for ``key`` lives under ``programs/``
    (a CRC32 of the key: the loader checks the key it finds)."""
    text = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return f"tree-{zlib.crc32(text.encode()):08x}.json"


def shipped_program(key: dict) -> Program | None:
    """The program shipped with the package for ``key``, if any (a file
    whose name collides but serves another key is none)."""
    name = program_filename(key)
    path = resources.files("repro.runtime") / "programs" / name
    if not path.is_file():
        return None
    program = Program.from_json(path.read_text())
    return program if program.key == key else None


def wire_tag(wire_key: tuple) -> str:
    """A wire's link tag (fault-plan matchable)."""
    src, dst, tree, phase, flow = wire_key
    tag = f"plan {phase} t{tree} {src}->{dst}"
    if flow is not None:
        tag += f" flow {flow[0]}->{flow[1]}"
    return tag


def edge_tag(wire_key: tuple) -> str | None:
    """A tree-phase wire's edge tag (``"up t0 2->3"``, ``"down t0
    3->2"``): a fault matching a tree edge hits all its wires."""
    src, dst, tree, phase, flow = wire_key
    direction = {"reduce": "up", "broadcast": "down"}.get(phase)
    if direction is None:
        return None
    a, b = flow if flow is not None else (src, dst)
    return f"{direction} t{tree} {a}->{b}"


class PhaseBoard:
    """Last-known phase per virtual GPU, for the abort diagnostic dump.

    Kernels stamp their progress (``"reduce t0 chunk 2/4"``) as they go;
    when the cluster aborts, the dump shows where every GPU last was —
    the difference between "it hung" and "GPU3's reduce kernel never
    finished chunk 2".
    """

    def __init__(self, nnodes: int):
        # Host-side bookkeeping, not a device primitive.
        self._lock = threading.Lock()  # sync-lint: allow(raw-threading)
        self._phases: dict[int, str] = {g: "idle" for g in range(nnodes)}

    def set(self, gpu: int, phase: str) -> None:
        with self._lock:
            # Terminal stamps are sticky: a GPU whose tree-0 kernel
            # crashed or wedged still has live sibling kernels on the
            # other trees, and their routine progress stamps must not
            # erase the one line detection relies on.
            current = self._phases.get(gpu, "")
            if "crashed" in current or "stuck" in current:
                return
            self._phases[gpu] = phase

    def get(self, gpu: int) -> str:
        with self._lock:
            return self._phases.get(gpu, "unknown")

    def dump(self) -> str:
        with self._lock:
            return "\n".join(
                f"gpu {gpu}: {phase}"
                for gpu, phase in sorted(self._phases.items())
            )


@dataclass
class RunReport:
    """Result of one executed collective.

    Attributes:
        outputs: per-GPU gradient arrays after the collective.
        layout: the element layout used.
        wall_time: wall-clock seconds for the run.
        enqueue_times: ``(gpu, tree)`` -> monotonic stamps taken just
            before each enqueue post, in chunk order.
        fault_stats: injected-fault counters (empty without a plan).
        leftover_frames: frames left in wires after every kernel
            finished — positive only when some SEND was never consumed.
        staged_bytes: link memory the run allocated for wires the
            aliasing proof rejected (``PLAN012``); 0 when all alias.
    """

    outputs: list[np.ndarray]
    layout: ChunkLayout
    wall_time: float
    enqueue_times: dict[tuple[int, int], list[float]] = field(
        default_factory=dict
    )
    fault_stats: dict = field(default_factory=dict)
    leftover_frames: int = 0
    staged_bytes: int = 0


class Executor:
    """Runs a :class:`Program` over one layout, any number of times.

    Args:
        program: the compiled program.
        layout: element layout with ``program.nchunks`` chunks.
        spin: spin/timeout configuration for every wait.
        fault_plan: optional fault injection: link faults matched
            against a wire's :func:`wire_tag` or :func:`edge_tag`, GPU
            faults fired in reduce-phase thread blocks.
        capacity: receive-buffer depth of every wire in chunks (the
            paper's bounded receive buffers: a send blocks while its
            wire holds ``capacity`` unconsumed frames); default each
            wire's send count.  Only programs that consume every wire
            in send order without waiting on the sender's later sends —
            the tree programs — may bound it.
    """

    def __init__(
        self,
        program: Program,
        layout: ChunkLayout,
        *,
        spin: SpinConfig | None = None,
        fault_plan: FaultPlan | None = None,
        capacity: int | None = None,
    ):
        if layout.nchunks != program.nchunks:
            raise ConfigError(
                f"layout has {layout.nchunks} chunks, program has "
                f"{program.nchunks}"
            )
        self.program = program
        self.layout = layout
        self.spin = spin or SpinConfig()
        self.fault_plan = fault_plan
        self.capacity = capacity
        #: Diagnostics for the most recent run (set at run start).
        self.abort_cell: AbortCell | None = None
        self.phase_board: PhaseBoard | None = None

    @property
    def nnodes(self) -> int:
        """Rank count (the ranks ``detect_dead_gpus`` scans)."""
        return self.program.nnodes

    def _build_wires(
        self, spin: SpinConfig, buffers: list[GradientBuffer]
    ) -> tuple[list[_Wire], list]:
        """Per wire index: the wire — aliasing the flow source's buffer
        where the proof allows, else staging the chunks it carries —
        and its fault injector."""
        wires, injectors = [], []
        fault_plan, aliased = self.fault_plan, self.program.aliased
        for w, (key, carried) in enumerate(self.program.wires):
            src, _dst, _tree, _phase, flow = key
            owner = None
            if w in aliased:
                owner = buffers[flow[0] if flow is not None else src]
            tag = wire_tag(key)
            depth = max(1, len(carried))
            wires.append(_Wire(
                self.layout, capacity=min(depth, self.capacity or depth),
                spin=spin,
                name=tag, chunks=carried,
                buffer=owner.data if owner is not None else None,
                owner_buffer=owner, zero_copy=owner is not None,
            ))
            injectors.append(
                fault_plan and fault_plan.link_injector(tag, edge_tag(key))
            )
        return wires, injectors

    def _execute(
        self,
        inputs: list[np.ndarray],
        *,
        in_place: bool = False,
        enqueue: bool = False,
        kernel_factory=None,
    ) -> RunReport:
        """Execute the program over ``inputs`` (one array per GPU).

        Args:
            inputs: per-GPU gradient arrays, all the same length.
            in_place: hand the arrays over as the GPUs' gradient buffers
                (NCCL's in-place convention): the collective reduces
                into them and ``outputs[g] is inputs[g]``.  Each must be
                a writeable, C-contiguous float64 array the caller no
                longer needs.  Off by default: ``inputs`` stay untouched.
            enqueue: post the gradient queue (module docstring).
            kernel_factory: with ``enqueue``, ``(buffers, enqueue
                semaphores) -> [(name, body), ...]`` extra kernels for
                the same pool — the chained runtime's compute kernels.

        Raises:
            AbortedError: a kernel crashed or stalled and the cluster
                aborted fail-fast (carries the diagnostic dump).
        """
        program, nnodes = self.program, self.program.nnodes
        if len(inputs) != nnodes:
            raise ConfigError(
                f"expected {nnodes} input arrays, got {len(inputs)}"
            )
        if {len(a) for a in inputs} != {self.layout.total_elems}:
            raise ConfigError("all inputs must match the layout size")

        abort = AbortCell()
        board = PhaseBoard(nnodes)
        abort.register_dump("per-GPU last-known phase", board.dump)
        self.abort_cell, self.phase_board = abort, board
        run_spin = replace(self.spin, abort=abort)

        # Fault-armed diagnostics: the abort dump carries the injector
        # counters and, per thread block, the last op in flight with its
        # builder/pass provenance.  Unarmed runs pay one check per op.
        fault_plan = self.fault_plan
        armed = fault_plan is not None
        active_ops: dict[tuple, int] = {}
        if armed:
            abort.register_dump("plan fault stats", fault_plan.stats.describe)

            def dump_active_ops() -> str:
                return "\n".join(
                    f"g{key[0]} tb {key[1]!r}: {program.name_of(op_id)} "
                    f"origin={program.origin_of(op_id) or '-'}"
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
        wires, injectors = self._build_wires(run_spin, buffers)
        aliased = program.aliased
        # Named after their ops only when a diagnostic reads the name.
        events = [
            DeviceEvent(run_spin, name=partial(program.name_of, op_id))
            for op_id in program.events
        ]
        # The gradient queue's producer side: each post is stamped just
        # before it, so a consumer never sees a stamp later than its
        # own wake-up.
        keys = itertools.product(range(nnodes), range(program.ntrees))
        sems = {
            key: DeviceSemaphore(
                program.nchunks // program.ntrees, spin=run_spin,
                name=f"enqueue g{key[0]} t{key[1]}",
            )
            for key in (keys if enqueue else ())
        }
        times: dict[tuple, list[float]] = {key: [] for key in sems}

        def make_kernel(key: tuple, prog: tuple):
            rank = key[0]
            buffer = buffers[rank]

            def kernel() -> None:
                board.set(rank, f"start tb {key[1]!r}")
                # Relay legs pass (payload, verified checksum) through
                # here, never through this GPU's own gradient slot.
                stash: dict[tuple, tuple[np.ndarray, int | None]] = {}
                # Chunk -> this block's last checksum for it.
                crcs: dict[int, int] = {}
                for (op_id, kind, w, chunks, relay, waits, sets, fault_pos,
                     tree, finals, reuse) in prog:
                    if armed:
                        active_ops[key] = op_id
                        if fault_pos >= 0:
                            fault_plan.apply_gpu_fault(
                                rank, tree, fault_pos, board, abort
                            )
                    for e in waits:
                        events[e].wait()
                    wire = wires[w]
                    if kind == K_SEND:
                        for c in chunks:
                            if relay is None:
                                crcs[c] = _transmit(
                                    wire, c, buffer.read_view(c),
                                    injectors[w], abort,
                                    crcs[c] if reuse else None,
                                )
                                continue
                            if (relay, c) not in stash:
                                raise RuntimeClusterError(
                                    f"{program.name_of(op_id)}: relay "
                                    f"forwards chunk {c} before receiving it"
                                )
                            values, checksum = stash.pop((relay, c))
                            _transmit(
                                wire, c, values, injectors[w], abort, checksum
                            )
                    elif kind == K_REDUCE:
                        for c in chunks:
                            buffer.accumulate(c, wire.take_view(c))
                    elif kind == K_RECV:
                        for c in chunks:
                            if relay is None:
                                view, crcs[c] = wire.take_frame(c)
                                buffer.overwrite(c, view)
                            else:
                                # A staging wire may deliver the chunk
                                # again while the stash holds it: copy.
                                # An aliased source stays put until its
                                # final consumer read it (the proof).
                                stash[(relay, c)] = (
                                    wire.take_frame(c) if w in aliased
                                    else (wire.take(c), None)
                                )
                    if enqueue:
                        for _ in range(finals):
                            times[(rank, tree)].append(time.monotonic())
                            sems[(rank, tree)].post()
                    if sets >= 0:
                        events[sets].set()

            return kernel

        pool = KernelPool(join_timeout=self.spin.timeout * 2, abort=abort)
        for key, prog in program.blocks:
            pool.add(f"plan g{key[0]} tb {key[1]!r}", make_kernel(key, prog))
        if kernel_factory is not None:
            for name, body in kernel_factory(buffers, sems):
                pool.add(name, body)

        started = time.monotonic()
        pool.run()
        elapsed = time.monotonic() - started
        return RunReport(
            [buf.data for buf in buffers], self.layout, elapsed, times,
            fault_plan.stats.snapshot() if fault_plan else {},
            leftover_frames=sum(len(wire._frames) for wire in wires),
            staged_bytes=sum(
                wire._data.nbytes for w, wire in enumerate(wires)
                if w not in aliased
            ),
        )
