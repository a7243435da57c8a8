"""Data-parallel SGD: the one span loop and the serial oracle.

Each iteration of data-parallel SGD has every virtual GPU compute a
local gradient from the shared weights and its own data shard; the
gradients are summed and one SGD step is applied.  :func:`sgd_span` is
that loop on an engine: every trainer
(:class:`~repro.runtime.queue_runtime.FunctionalTrainer` and each span
of :class:`~repro.runtime.elastic.ElasticTrainer`) hands it one step
of its engine.  :func:`serial_reference` runs the same SGD
single-threaded in a loop of its own, so the oracle shares no code with
the loop it checks, and :func:`tree_reduce_order` replays the tree
runtime's summation order so the two agree bit for bit.

The point is the paper's accuracy-neutrality claim at training-loop
scope: the chained, overlapped execution must produce *exactly* the
weights a straightforward serial implementation computes (same reduction
tree, so bit-identical floating point).  This module imports no engine
(the span loop takes the engine's step as a callable), so a check that
needs only the oracle loads no runtime.
"""

from __future__ import annotations

import sys
import weakref
from typing import Callable

import numpy as np

from repro.dnn.layers import NetworkModel
from repro.errors import ConfigError
from repro.runtime.memory import ChunkLayout, payload_checksum
from repro.topology.logical import BinaryTree

#: Computes one GPU's local gradient: (weights, gpu, iteration) -> grad.
GradientFn = Callable[[np.ndarray, int, int], np.ndarray]

#: One collective step on an engine: (per-GPU gradients, the weights)
#: -> each GPU's weights after the step.  The gradients are the run's
#: own (see :func:`private_gradient`): it may reduce into them in place.
StepFn = Callable[[list[np.ndarray], np.ndarray], list[np.ndarray]]


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


def sgd_span(
    step: StepFn,
    gradient_fn: GradientFn,
    weights: np.ndarray,
    iterations: range,
    *,
    nnodes: int,
    checksums: list[int],
) -> np.ndarray:
    """Data-parallel SGD over ``iterations`` on one engine's ``step``.

    Per iteration each of the ``nnodes`` GPUs' private gradients at the
    current weights goes to ``step``; every GPU's weights after it must
    agree, and their CRC32 is appended to ``checksums``.  Returns the
    final weights: the engine's own array.

    Raises:
        ConfigError: when the GPUs' weights diverge.
    """
    for iteration in iterations:
        grads = [
            private_gradient(gradient_fn(weights, gpu, iteration))
            for gpu in range(nnodes)
        ]
        replicas = step(grads, weights)
        del grads
        if any(not np.array_equal(replicas[0], w) for w in replicas[1:]):
            raise ConfigError("GPUs diverged — the collective is broken")
        weights = replicas[0]
        checksums.append(payload_checksum(weights))
        del replicas  # freed before the next iteration allocates
    return weights


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
