"""Gradient queuing + forward-compute chaining over the functional runtime.

This is the C-Cube "C2" component running for real: per GPU, a compute
kernel walks the layers in forward order and, before each layer, performs
the gradient-queue dequeue — a non-consuming ``check`` on the enqueue
semaphore against the layer-chunk table (paper Fig. 9) — then applies the
parameter update using the *reduced* gradients and "computes" the layer.
Because the check consumes nothing and the layer index counter only
advances, forward order is strictly increasing by construction, and a
dequeue can never observe a chunk that has not been enqueued.  The
producer is the executor's enqueue hook (in position order: ``PLAN013``).

:class:`FunctionalTrainer` drives that chained step for several
iterations — a full (small-scale) data-parallel SGD loop, C-Cube's
chained update path end to end — and its weights must equal
:func:`~repro.runtime.training.serial_reference` bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.dnn.layers import BYTES_PER_PARAM, NetworkModel
from repro.runtime.allreduce import RunReport, TreeAllReduceRuntime
from repro.runtime.memory import ChunkLayout, GradientBuffer
from repro.runtime.training import GradientFn, sgd_span


@dataclass(frozen=True)
class ComputeRecord:
    """One layer's forward start on one GPU.

    Attributes:
        gpu: GPU id.
        layer: layer index (forward order).
        timestamp: monotonic time the dequeue succeeded.
    """

    gpu: int
    layer: int
    timestamp: float


def layer_elem_ranges(network: NetworkModel) -> list[tuple[int, int]]:
    """Per layer, its half-open element range in the gradient buffer."""
    ranges = []
    for layer_idx in range(len(network)):
        lo_b, hi_b = network.byte_range(layer_idx)
        ranges.append((lo_b // BYTES_PER_PARAM, hi_b // BYTES_PER_PARAM))
    return ranges


def layer_requirements(
    network: NetworkModel, layout: ChunkLayout
) -> list[tuple[int, ...]]:
    """The layer-chunk table in runtime terms: per layer, per tree, the
    cumulative enqueue count required before the layer may dequeue."""
    if network.total_params != layout.total_elems:
        raise ConfigError(
            f"network has {network.total_params} params, layout "
            f"{layout.total_elems} elems"
        )
    requirements: list[tuple[int, ...]] = []
    for lo, hi in layer_elem_ranges(network):
        per_tree = [0] * layout.ntrees
        for t, chunks in enumerate(layout.tree_chunks):
            for pos, chunk in enumerate(chunks, start=1):
                start, stop = layout.bounds[chunk]
                if start < hi and stop > lo:
                    per_tree[t] = max(per_tree[t], pos)
        requirements.append(tuple(per_tree))
    return requirements


@dataclass
class ChainedRunResult:
    """Outcome of one chained AllReduce + forward pass.

    Attributes:
        report: the underlying AllReduce report.
        compute_log: per-GPU compute records, in execution order.
        weights: per-GPU weight arrays after the chained update step.
    """

    report: RunReport
    compute_log: dict[int, list[ComputeRecord]]
    weights: list[np.ndarray]


class ChainedTrainingRuntime:
    """Runs AllReduce and the next iteration's forward pass chained.

    Args:
        runtime: the configured functional AllReduce.
        network: workload whose layers gate on the gradient queue
            (``network.total_params`` must equal the runtime's element
            count).
        learning_rate: SGD step applied during each layer's dequeue,
            making the chained update numerically observable.
    """

    def __init__(
        self,
        runtime: TreeAllReduceRuntime,
        network: NetworkModel,
        *,
        learning_rate: float = 0.1,
    ):
        self.runtime = runtime
        self.network = network
        self.learning_rate = learning_rate
        self.requirements = layer_requirements(network, runtime.layout)
        self.elem_ranges = layer_elem_ranges(network)

    def run(
        self,
        grads: list[np.ndarray],
        weights: list[np.ndarray] | None = None,
        *,
        in_place: bool = False,
    ) -> ChainedRunResult:
        """AllReduce ``grads`` while chaining each GPU's forward pass.

        Args:
            grads: per-GPU gradient arrays.
            weights: per-GPU weight arrays (zeros if omitted); each GPU
                updates its own copy layer by layer as layers dequeue, so
                afterwards all copies must be identical (the reduced
                gradients are identical everywhere).
            in_place: reduce into ``grads`` themselves (see
                :meth:`TreeAllReduceRuntime.run`); the caller must show
                they are private to the run.  Off by default.
        """
        nnodes = self.runtime.nnodes
        if weights is None:
            weights = [
                np.zeros(self.runtime.layout.total_elems) for _ in range(nnodes)
            ]
        if len(weights) != nnodes:
            raise ConfigError(f"expected {nnodes} weight arrays")
        logs: dict[int, list[ComputeRecord]] = {g: [] for g in range(nnodes)}

        def factory(buffers: list[GradientBuffer], sems: dict):
            return [
                (
                    f"compute g{gpu}",
                    self._compute_kernel(
                        gpu, buffers[gpu], weights[gpu], sems, logs[gpu]
                    ),
                )
                for gpu in range(nnodes)
            ]

        report = self.runtime.run(
            grads, kernel_factory=factory, in_place=in_place
        )
        return ChainedRunResult(report=report, compute_log=logs, weights=weights)

    def _compute_kernel(
        self,
        gpu: int,
        buffer: GradientBuffer,
        weights: np.ndarray,
        sems: dict,
        log: list[ComputeRecord],
    ):
        def kernel() -> None:
            for layer_idx, ((lo, hi), per_tree) in enumerate(
                zip(self.elem_ranges, self.requirements)
            ):
                board = self.runtime.phase_board
                if board is not None:
                    board.set(gpu, f"compute layer {layer_idx}")
                # Dequeue: check each stream's enqueue semaphore against
                # the layer-chunk table entry (Fig. 9 (c)(e)(g)).
                for t, needed in enumerate(per_tree):
                    if needed:
                        sems[(gpu, t)].check(needed)
                log.append(
                    ComputeRecord(
                        gpu=gpu, layer=layer_idx, timestamp=time.monotonic()
                    )
                )
                weights[lo:hi] -= (
                    self.learning_rate * buffer.read_range(lo, hi)
                )

        return kernel


@dataclass
class FunctionalTrainingResult:
    """Outcome of a functional training run.

    Attributes:
        weights: final shared weights (identical across GPUs — asserted);
            the trainer's own array, not a copy.
        weight_checksums: CRC32 (``memory.payload_checksum``) of the
            weights after each iteration — one int per iteration, so the
            result holds no weight vector but the final one.
        dequeue_orders: per iteration, per GPU, the layer dequeue order.
    """

    weights: np.ndarray
    weight_checksums: list[int]
    dequeue_orders: list[dict[int, list[int]]]


class FunctionalTrainer:
    """Runs data-parallel SGD iterations on the virtual cluster.

    Args:
        runtime: configured AllReduce runtime (trees, chunks, overlap).
        network: layer table gating the gradient queue.
        gradient_fn: per-GPU local gradient function.
        learning_rate: SGD step size (applied to the *summed* gradient,
            as the runtime reduces with sum — fold any 1/P into it).
    """

    def __init__(
        self,
        runtime: TreeAllReduceRuntime,
        network: NetworkModel,
        gradient_fn: GradientFn,
        *,
        learning_rate: float = 0.05,
    ):
        if network.total_params != runtime.layout.total_elems:
            raise ConfigError("network size must match the runtime layout")
        self.runtime = runtime
        self.network = network
        self.gradient_fn = gradient_fn
        self.learning_rate = learning_rate
        self.chained = ChainedTrainingRuntime(
            runtime, network, learning_rate=learning_rate
        )

    def train(
        self, initial_weights: np.ndarray, *, iterations: int
    ) -> FunctionalTrainingResult:
        """Run ``iterations`` chained training steps.

        Raises:
            ConfigError: on shape mismatch or non-positive iterations.
        """
        if iterations < 1:
            raise ConfigError("need at least 1 iteration")
        if len(initial_weights) != self.network.total_params:
            raise ConfigError("initial weights have the wrong size")
        nnodes = self.runtime.nnodes
        checksums: list[int] = []
        dequeue_orders: list[dict[int, list[int]]] = []

        def step(grads: list[np.ndarray], weights: np.ndarray):
            # Each GPU applies the step to its own copy as its layers
            # dequeue; the span loop checks the copies agree.
            result = self.chained.run(
                grads,
                weights=[weights.copy() for _ in range(nnodes)],
                in_place=True,
            )
            dequeue_orders.append(
                {
                    gpu: [rec.layer for rec in result.compute_log[gpu]]
                    for gpu in range(nnodes)
                }
            )
            return result.weights

        weights = sgd_span(
            step,
            self.gradient_fn,
            np.asarray(initial_weights, dtype=np.float64).copy(),
            range(iterations),
            nnodes=nnodes,
            checksums=checksums,
        )
        return FunctionalTrainingResult(
            weights=weights,
            weight_checksums=checksums,
            dequeue_orders=dequeue_orders,
        )
