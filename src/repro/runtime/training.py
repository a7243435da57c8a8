"""Multi-iteration functional training over the virtual cluster.

A full (small-scale) data-parallel SGD loop on the thread-backed runtime:
each iteration, every virtual GPU computes a local gradient from the
shared weights and its own data shard, the gradients are AllReduced with
the chosen tree configuration, and the update is applied layer by layer
through the gradient queue — i.e., C-Cube's chained update path runs end
to end for several iterations.

The point is the paper's accuracy-neutrality claim at training-loop
scope: the chained, overlapped execution must produce *exactly* the
weights a straightforward serial implementation computes (same reduction
tree, so bit-identical floating point).
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.dnn.layers import NetworkModel
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.faults import payload_checksum
from repro.runtime.memory import ChunkLayout
from repro.runtime.queue_runtime import ChainedTrainingRuntime
from repro.topology.logical import BinaryTree

#: Computes one GPU's local gradient: (weights, gpu, iteration) -> grad.
GradientFn = Callable[[np.ndarray, int, int], np.ndarray]


def _refcount(obj: object) -> int:
    return sys.getrefcount(obj)


#: What ``sys.getrefcount`` reports, inside a function, for the
#: parameter of a call whose argument was a temporary: the count of an
#: object nothing else refers to.  Measured rather than assumed, since
#: interpreters differ in how they count the call's own references.
_SOLE_REFS = _refcount(object())


def private_gradient(grad: object) -> np.ndarray:
    """``grad`` as an array the collective may reduce into.

    Pass the gradient function's result straight in, unbound:
    ``private_gradient(gradient_fn(w, gpu, it))``.  The array itself is
    returned when it is provably private — a float64, C-contiguous,
    writeable array that owns its data and that nothing else refers to,
    weakly or strongly — and a float64 copy otherwise, so an array the
    gradient function keeps (or a view of one) is never written.
    """
    if (
        sys.getrefcount(grad) <= _SOLE_REFS
        and type(grad) is np.ndarray
        and weakref.getweakrefcount(grad) == 0
        and grad.base is None
        and grad.dtype == np.float64
        and grad.flags.c_contiguous
        and grad.flags.writeable
    ):
        return grad
    return np.array(grad, dtype=np.float64)


def tree_reduce_order(
    trees: tuple[BinaryTree, ...], layout: ChunkLayout
) -> Callable[[list[np.ndarray]], np.ndarray]:
    """Summation in the exact order the tree runtime reduces.

    An oracle independent of the runtime's program: each node starts
    from its own gradient and accumulates each child's fully reduced
    partial in ``children`` order, bottom-up; the root's value is
    broadcast unchanged.  Replaying that order here makes
    :func:`serial_reference` bit-identical to the distributed run — the
    comparison the accuracy-neutrality (and fault-recovery) tests rely
    on.
    """

    def reduce(grads: list[np.ndarray]) -> np.ndarray:
        total = np.empty_like(np.asarray(grads[0], dtype=np.float64))
        for t, tree in enumerate(trees):
            for chunk in layout.tree_chunks[t]:
                sl = layout.slice_of(chunk)

                def partial(node: int) -> np.ndarray:
                    acc = np.asarray(
                        grads[node][sl], dtype=np.float64
                    ).copy()
                    for child in tree.children[node]:
                        acc += partial(child)
                    return acc

                total[sl] = partial(tree.root)
        return total

    return reduce


def quadratic_gradient(targets: list[np.ndarray]) -> GradientFn:
    """Gradient of ``0.5 * ||w - t_gpu||^2`` per GPU — a convex toy
    problem where each GPU holds a different data shard (its target)."""

    def fn(weights: np.ndarray, gpu: int, iteration: int) -> np.ndarray:
        del iteration
        return weights - targets[gpu]

    return fn


@dataclass
class FunctionalTrainingResult:
    """Outcome of a functional training run.

    Attributes:
        weights: final shared weights (identical across GPUs — asserted);
            the trainer's own array, not a copy.
        weight_checksums: CRC32 (``faults.payload_checksum``) of the
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
        weights = np.asarray(initial_weights, dtype=np.float64).copy()
        checksums: list[int] = []
        dequeue_orders: list[dict[int, list[int]]] = []

        for iteration in range(iterations):
            # Gradients the function handed over outright become the
            # GPUs' gradient buffers; any it keeps are copied first.
            grads = [
                private_gradient(self.gradient_fn(weights, gpu, iteration))
                for gpu in range(nnodes)
            ]
            result = self.chained.run(
                grads,
                weights=[weights.copy() for _ in range(nnodes)],
                in_place=True,
            )
            del grads
            for w in result.weights[1:]:
                if not np.array_equal(result.weights[0], w):
                    raise ConfigError(
                        "GPUs diverged — the collective is broken"
                    )
            weights = result.weights[0]
            checksums.append(payload_checksum(weights))
            dequeue_orders.append(
                {
                    gpu: [rec.layer for rec in result.compute_log[gpu]]
                    for gpu in range(nnodes)
                }
            )
            # Free this iteration's per-GPU weights and buffers before the
            # next one allocates its own.
            del result
        return FunctionalTrainingResult(
            weights=weights,
            weight_checksums=checksums,
            dequeue_orders=dequeue_orders,
        )


def serial_reference(
    network: NetworkModel,
    gradient_fn: GradientFn,
    initial_weights: np.ndarray,
    *,
    nnodes: int,
    iterations: int,
    learning_rate: float = 0.05,
    reduce_order: Callable[[list[np.ndarray]], np.ndarray] | None = None,
) -> np.ndarray:
    """The single-process SGD the distributed run must reproduce.

    Args:
        reduce_order: how to sum the per-GPU gradients; pass the same
            tree-reduction order as the runtime for bit-exact comparison,
            or leave None for plain ``np.sum`` (then compare with
            tolerances).
    """
    del network
    weights = np.asarray(initial_weights, dtype=np.float64).copy()
    for iteration in range(iterations):
        grads = [
            np.asarray(gradient_fn(weights, gpu, iteration), dtype=np.float64)
            for gpu in range(nnodes)
        ]
        if reduce_order is not None:
            total = reduce_order(grads)
        else:
            total = np.sum(grads, axis=0)
        weights = weights - learning_rate * total
    return weights
