"""Functional tree AllReduce over the virtual GPU cluster.

:class:`TreeAllReduceRuntime` runs the paper's chunked, pipelined
(double-)tree AllReduce on the :class:`~repro.runtime.executor.Executor`,
the one engine.  It is a thin constructor: per (GPU, tree) the program
has a reduce thread block that accumulates its children's partials in
``tree.children`` order and sends its own up, and a broadcast block
that fans the reduced chunk out — per chunk when ``overlapped`` (C1),
after all K chunks otherwise (baseline B); a detoured edge gets a relay
block on its intermediate GPU.  The trainers' configurations ship as
program JSON, so building them loads no compiler; any other is built,
verified and compiled at construction
(:func:`repro.plan.compiler.tree_program`).

Every GPU ends with the elementwise sum, bit-identical across overlap
settings and to :func:`~repro.runtime.training.tree_reduce_order`
(overlap changes timing, never the reduction order), and every chunk
that becomes final on a GPU is *enqueued* for
:mod:`repro.runtime.queue_runtime`'s in-order dequeue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.runtime.executor import (
    Executor, RunReport, program_key, shipped_program,
)
from repro.runtime.memory import ChunkLayout
from repro.runtime.sync import SpinConfig
from repro.topology.logical import BinaryTree

if TYPE_CHECKING:
    from repro.runtime.faults import FaultPlan

__all__ = ["RunReport", "TreeAllReduceRuntime"]

class TreeAllReduceRuntime(Executor):
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
            edges without a physical link (paper's static detour
            routes), relayed both ways; no other edge is.
        spin: spin-loop configuration for all waits.
        buffer_capacity: receive-buffer depth of every wire in chunks
            (bounded receive buffers with flow control); default
            unbounded, each wire sized to its send count.
        fault_plan: declarative fault scenario
            (:class:`~repro.runtime.faults.FaultPlan`) — link jitter,
            drops, corruption, GPU stragglers/crashes/stalls, and the
            recovery policy; with recovery, results are unchanged.
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
    ):
        if not trees:
            raise ConfigError("need at least one tree")
        nodes = set(trees[0].nodes)
        for tree in trees:
            if set(tree.nodes) != nodes:
                raise ConfigError("all trees must span the same GPUs")
        if nodes != set(range(len(nodes))):
            raise ConfigError("GPU ids must be dense 0..P-1")
        if chunks_per_tree < 1:
            raise ConfigError("need at least 1 chunk per tree")
        for fault in (fault_plan.gpu_faults if fault_plan else ()):
            if not 0 <= fault.gpu < len(nodes):
                raise ConfigError(f"GPU fault targets unknown gpu {fault.gpu}")
        self.trees = tuple(trees)
        self.overlapped = overlapped
        self.detour_map = dict(detour_map or {})
        config = dict(
            chunks_per_tree=chunks_per_tree, overlapped=overlapped,
            detour_map=self.detour_map,
        )
        program = shipped_program(program_key(self.trees, **config))
        if program is None:
            from repro.plan.compiler import tree_program

            program = tree_program(self.trees, **config)
        layout = ChunkLayout.split(
            total_elems, ntrees=len(trees), chunks_per_tree=chunks_per_tree
        )
        super().__init__(
            program, layout, spin=spin, fault_plan=fault_plan,
            capacity=buffer_capacity,
        )

    def run(
        self,
        inputs: list[np.ndarray],
        *,
        kernel_factory=None,
        in_place: bool = False,
    ) -> RunReport:
        """Execute one AllReduce over ``inputs`` (one array per GPU),
        posting the gradient queue; ``kernel_factory`` and ``in_place``
        are :meth:`Executor._execute
        <repro.runtime.executor.Executor._execute>`'s.  The report's
        ``enqueue_times`` hold every GPU's enqueue stamps.

        Raises:
            AbortedError: a kernel crashed or stalled and the cluster
                aborted (the error carries the diagnostic dump).
        """
        return self._execute(
            inputs, in_place=in_place, enqueue=True,
            kernel_factory=kernel_factory,
        )
