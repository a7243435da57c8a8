"""Functional double-tree AllReduce over the virtual GPU cluster.

One persistent reduce kernel and one persistent broadcast kernel run per
(GPU, tree), exactly as in the paper's CUDA proof-of-concept:

- the reduce kernel waits (``wait``) for each child's partial chunk,
  accumulates it reading the child's gradient buffer in place
  (zero-copy uplinks), and publishes its own partial up;
- the root posts a per-chunk "fully reduced" semaphore;
- the broadcast kernel chains on it — per chunk when ``overlapped`` (the
  C1 behaviour), or only after all K chunks when running the baseline's
  separated phases — and pushes reduced chunks down, writing directly
  into each child's gradient buffer;
- every delivered chunk is *enqueued* (the gradient-queue enqueue
  semaphore is bumped), giving :mod:`repro.runtime.queue_runtime` its
  in-order dequeue stream;
- detoured edges run static forwarding kernels on the intermediate GPU.

The result is numerically exact: every GPU ends with the elementwise sum
of all inputs, bit-identical between overlapped and baseline runs because
overlap changes only timing, never the reduction order (the paper's
accuracy-neutrality claim).

Robustness: every run owns an :class:`~repro.runtime.sync.AbortCell`
threaded through all semaphores and the kernel pool, so one crashed or
stuck kernel aborts the whole cluster fast with a diagnostic dump, and a
:class:`~repro.runtime.faults.FaultPlan` can inject link faults (jitter,
drops, corruption — recovered by link-layer retransmission) and GPU
faults (straggler, crash, stuck kernel) declaratively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigError, RuntimeClusterError
from repro.runtime.cluster import DownLink, KernelPool, UpLink
from repro.runtime.faults import (
    FaultPlan,
    PhaseBoard,
    apply_gpu_fault,
    payload_checksum,
)
from repro.runtime.memory import ChunkLayout, GradientBuffer
from repro.runtime.sync import AbortCell, DeviceSemaphore, SpinConfig
from repro.topology.logical import BinaryTree


@dataclass
class RunReport:
    """Outcome of one functional AllReduce.

    Attributes:
        outputs: per-GPU result arrays (each should equal the input sum).
        layout: chunk layout used.
        enqueue_times: ``(gpu, tree)`` -> monotonic timestamps taken just
            before each enqueue-semaphore post, in chunk order.
        wall_time: wall-clock duration of the run.
        fault_stats: injector counters for the run (empty without a
            fault plan): delays, drops, corruptions, retransmissions.
    """

    outputs: list[np.ndarray]
    layout: ChunkLayout
    enqueue_times: dict[tuple[int, int], list[float]]
    wall_time: float
    fault_stats: dict[str, int] = field(default_factory=dict)


class TreeAllReduceRuntime:
    """Configurable functional tree AllReduce.

    Args:
        trees: one or two reduction/broadcast trees over GPU ids
            ``0..nnodes-1`` (two trees = the double-tree algorithm, each
            carrying half the buffer).
        total_elems: gradient element count.
        chunks_per_tree: pipeline chunk count K per tree.
        overlapped: chain broadcast after per-chunk reduction (C1); when
            False the phases are separated per tree (baseline B).
        detour_map: ``(child, parent) -> intermediate GPU`` for logical
            edges without a physical link (paper's static detour routes).
        spin: spin-loop configuration for all semaphores.
        buffer_capacity: receive-buffer depth in chunks (bounded
            semaphores; the paper manages finite receive buffers).
        fault_plan: declarative fault scenario
            (:class:`~repro.runtime.faults.FaultPlan`) — link jitter,
            drops, corruption, GPU stragglers/crashes/stalls, and the
            recovery policy.  Correctness must be timing-independent, so
            with recovery enabled all results are unchanged; tests use
            this to stress the synchronization protocol.
        chaos_delay: legacy shorthand for a uniform link-jitter plan —
            every link send sleeps a random duration in ``[0,
            chaos_delay]`` seconds (deterministic per link).
        chaos_seed: RNG seed for the legacy jitter plan.
    """

    def __init__(
        self,
        trees: tuple[BinaryTree, ...],
        *,
        total_elems: int,
        chunks_per_tree: int,
        overlapped: bool = True,
        detour_map: dict[tuple[int, int], int] | None = None,
        spin: SpinConfig | None = None,
        buffer_capacity: int | None = None,
        fault_plan: FaultPlan | None = None,
        chaos_delay: float = 0.0,
        chaos_seed: int = 0,
    ):
        if not trees:
            raise ConfigError("need at least one tree")
        nodes = set(trees[0].nodes)
        for tree in trees:
            if set(tree.nodes) != nodes:
                raise ConfigError("all trees must span the same GPUs")
        self.trees = trees
        self.nnodes = len(nodes)
        if nodes != set(range(self.nnodes)):
            raise ConfigError("GPU ids must be dense 0..P-1")
        if chunks_per_tree < 1:
            raise ConfigError("need at least 1 chunk per tree")
        self.layout = ChunkLayout.split(
            total_elems, ntrees=len(trees), chunks_per_tree=chunks_per_tree
        )
        self.overlapped = overlapped
        self.detour_map = dict(detour_map or {})
        self.spin = spin or SpinConfig()
        self.capacity = buffer_capacity or chunks_per_tree
        if chaos_delay < 0:
            raise ConfigError("chaos_delay must be non-negative")
        if chaos_delay > 0:
            if fault_plan is not None:
                raise ConfigError(
                    "pass either fault_plan or chaos_delay, not both"
                )
            fault_plan = FaultPlan.jitter(chaos_delay, chaos_seed)
        self.fault_plan = fault_plan
        for fault in (fault_plan.gpu_faults if fault_plan else ()):
            if not 0 <= fault.gpu < self.nnodes:
                raise ConfigError(f"GPU fault targets unknown gpu {fault.gpu}")
        #: Diagnostics for the most recent ``run`` (set at run start).
        self.phase_board: PhaseBoard | None = None
        self.abort_cell: AbortCell | None = None

    # -- wiring ----------------------------------------------------------

    def _build_links(
        self, buffers: list[GradientBuffer], spin: SpinConfig
    ) -> tuple[dict, dict, list[tuple[str, object]]]:
        """Create up/down links for every tree edge; returns (uplinks,
        downlinks, relay kernel entries)."""
        plan = self.fault_plan
        uplinks: dict[tuple[int, int], UpLink] = {}
        downlinks: dict[tuple[int, int], DownLink] = {}
        relays: list[tuple[str, object]] = []
        for t, tree in enumerate(self.trees):
            chunks = self.layout.tree_chunks[t]
            for child, parent in tree.up_edges():
                via = self.detour_map.get((child, parent))
                up_tag = f"up t{t} {child}->{parent}"
                up = UpLink(
                    self.layout,
                    buffers[child],
                    capacity=self.capacity,
                    spin=spin,
                    name=f"t{t}:{child}->{parent}",
                    chunks=chunks,
                    relay_via=via,
                    injector=plan.link_injector(up_tag) if plan else None,
                )
                uplinks[(t, child)] = up
                down_tag = f"down t{t} {parent}->{child}"
                down = DownLink(
                    self.layout,
                    buffers[child],
                    capacity=self.capacity,
                    spin=spin,
                    name=f"t{t}:{parent}->{child}",
                    chunks=chunks,
                    parent_buffer=buffers[parent],
                    relay_via=via,
                    injector=plan.link_injector(down_tag) if plan else None,
                )
                downlinks[(t, child)] = down
                if via is not None:
                    relays.append(
                        (f"relay-up t{t} {child}->{via}->{parent}",
                         up.relay_kernel(chunks))
                    )
                    relays.append(
                        (f"relay-down t{t} {parent}->{via}->{child}",
                         down.relay_kernel(chunks))
                    )
        return uplinks, downlinks, relays

    # -- kernels ---------------------------------------------------------

    def _reduce_kernel(
        self,
        t: int,
        node: int,
        buffers: list[GradientBuffer],
        uplinks: dict,
        reduced_sem: DeviceSemaphore,
        board: PhaseBoard,
        abort: AbortCell,
    ):
        tree = self.trees[t]
        chunks = self.layout.tree_chunks[t]

        def kernel() -> None:
            # Each child's partial is verified and accumulated in place,
            # straight from the child's gradient buffer (detoured or
            # not); our own partial is published the same way and stays
            # untouched until the reduced chunk comes back.
            for pos, chunk in enumerate(chunks):
                board.set(node, f"reduce t{t} chunk {pos + 1}/{len(chunks)}")
                apply_gpu_fault(self.fault_plan, node, t, pos, board, abort)
                for child in tree.children[node]:
                    buffers[node].accumulate(
                        chunk, uplinks[(t, child)].recv_view(chunk)
                    )
                if node == tree.root:
                    reduced_sem.post()
                else:
                    uplinks[(t, node)].send(
                        chunk, buffers[node].read_view(chunk)
                    )

        return kernel

    def _broadcast_kernel(
        self,
        t: int,
        node: int,
        buffers: list[GradientBuffer],
        downlinks: dict,
        reduced_sem: DeviceSemaphore,
        enqueue: "_EnqueueBoard",
        board: PhaseBoard,
    ):
        tree = self.trees[t]
        chunks = self.layout.tree_chunks[t]

        def kernel() -> None:
            if node == tree.root and not self.overlapped:
                # Baseline: the broadcast phase starts only after the
                # entire reduction phase completed.
                for _ in chunks:
                    reduced_sem.wait()
            for pos, chunk in enumerate(chunks):
                board.set(
                    node, f"broadcast t{t} chunk {pos + 1}/{len(chunks)}"
                )
                if node == tree.root:
                    if self.overlapped:
                        reduced_sem.wait()
                else:
                    checksum = downlinks[(t, node)].recv_wait(chunk)
                # Every downlink send copies the payload onto its wire
                # synchronously, so one view serves all children.
                payload = buffers[node].read_view(chunk)
                if node == tree.root:
                    # One CRC per payload: the root checksums the reduced
                    # chunk once for all children, and every other GPU
                    # forwards the checksum it just verified.
                    checksum = payload_checksum(payload)
                for child in tree.children[node]:
                    downlinks[(t, child)].send(chunk, payload, checksum)
                enqueue.post(node, t)

        return kernel

    # -- entry point -----------------------------------------------------

    def run(
        self,
        inputs: list[np.ndarray],
        *,
        extra_kernels: list[tuple[str, object]] | None = None,
        kernel_factory: object | None = None,
        enqueue_sems: dict[tuple[int, int], DeviceSemaphore] | None = None,
        in_place: bool = False,
    ) -> RunReport:
        """Execute one AllReduce over ``inputs`` (one array per GPU).

        Args:
            inputs: per-GPU gradient arrays, all the same length.
            extra_kernels: additional kernel bodies to run in the same
                pool.
            kernel_factory: callable receiving the live per-GPU
                :class:`GradientBuffer` list and returning extra
                ``(name, body)`` kernels — the chained-training runtime
                uses this so its compute kernels read the buffers the
                collective actually reduces into.
            enqueue_sems: externally supplied gradient-queue semaphores
                (created internally when omitted); they are attached to
                the run's abort cell so consumers blocked in ``check``
                also exit fail-fast.
            in_place: hand the input arrays over as the GPUs' gradient
                buffers (NCCL's in-place convention): the collective
                reduces into them, and ``outputs[g] is inputs[g]``.
                Each must be a writeable, C-contiguous float64 array
                the caller no longer needs.  Off by default: the
                buffers are copies and ``inputs`` stay untouched.

        Returns:
            A :class:`RunReport`; ``outputs[g]`` is GPU ``g``'s buffer
            after the collective.

        Raises:
            AbortedError: a kernel crashed or stalled and the cluster
                aborted (the error carries the diagnostic dump).
        """
        if len(inputs) != self.nnodes:
            raise ConfigError(
                f"expected {self.nnodes} input arrays, got {len(inputs)}"
            )
        lengths = {len(a) for a in inputs}
        if lengths != {self.layout.total_elems}:
            raise ConfigError("all inputs must match the layout size")

        abort = AbortCell()
        board = PhaseBoard(self.nnodes)
        abort.register_dump("per-GPU last-known phase", board.dump)
        self.abort_cell = abort
        self.phase_board = board
        run_spin = replace(self.spin, abort=abort)

        buffers = [
            GradientBuffer(a, self.layout, owner=g, copy=not in_place)
            for g, a in enumerate(inputs)
        ]
        uplinks, downlinks, relays = self._build_links(buffers, run_spin)
        reduced_sems = [
            DeviceSemaphore(
                self.capacity, spin=run_spin, name=f"reduced.t{t}"
            )
            for t in range(len(self.trees))
        ]
        if enqueue_sems is not None:
            for sem in enqueue_sems.values():
                sem.attach_abort(abort)
        enqueue = _EnqueueBoard(self, enqueue_sems, spin=run_spin)

        pool = KernelPool(join_timeout=self.spin.timeout * 2, abort=abort)
        for name, body in relays:
            pool.add(name, body)
        for t, tree in enumerate(self.trees):
            for node in tree.nodes:
                pool.add(
                    f"reduce t{t} g{node}",
                    self._reduce_kernel(
                        t, node, buffers, uplinks, reduced_sems[t],
                        board, abort,
                    ),
                )
                pool.add(
                    f"broadcast t{t} g{node}",
                    self._broadcast_kernel(
                        t, node, buffers, downlinks, reduced_sems[t],
                        enqueue, board,
                    ),
                )
        for name, body in extra_kernels or []:
            pool.add(name, body)
        if kernel_factory is not None:
            for name, body in kernel_factory(buffers):  # type: ignore[operator]
                pool.add(name, body)

        started = time.monotonic()
        pool.run()
        elapsed = time.monotonic() - started
        return RunReport(
            outputs=[buf.data for buf in buffers],
            layout=self.layout,
            enqueue_times=enqueue.times,
            wall_time=elapsed,
            fault_stats=(
                self.fault_plan.stats.snapshot() if self.fault_plan else {}
            ),
        )

    def make_enqueue_sems(
        self, *, spin: SpinConfig | None = None
    ) -> dict[tuple[int, int], DeviceSemaphore]:
        """Gradient-queue enqueue semaphores for every (gpu, tree)."""
        spin = spin or self.spin
        chunks_per_tree = len(self.layout.tree_chunks[0])
        return {
            (gpu, t): DeviceSemaphore(
                max(self.capacity, chunks_per_tree),
                spin=spin,
                name=f"enqueue g{gpu} t{t}",
            )
            for gpu in range(self.nnodes)
            for t in range(len(self.trees))
        }


class _EnqueueBoard:
    """Tracks gradient-queue enqueues: semaphores plus timestamps."""

    def __init__(
        self,
        runtime: TreeAllReduceRuntime,
        sems: dict[tuple[int, int], DeviceSemaphore] | None,
        *,
        spin: SpinConfig | None = None,
    ):
        self.sems = (
            sems if sems is not None else runtime.make_enqueue_sems(spin=spin)
        )
        self.times: dict[tuple[int, int], list[float]] = {
            key: [] for key in self.sems
        }

    def post(self, gpu: int, tree: int) -> None:
        key = (gpu, tree)
        if key not in self.sems:
            raise RuntimeClusterError(f"no enqueue semaphore for {key}")
        # Timestamp before the post so consumers observing the post always
        # see a timestamp no later than their own wake-up time.
        self.times[key].append(time.monotonic())
        self.sems[key].post()
