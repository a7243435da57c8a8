"""The serial oracle every distributed training run is checked against.

Each iteration of data-parallel SGD has every virtual GPU compute a
local gradient from the shared weights and its own data shard; the
gradients are summed and one SGD step is applied.  The trainers
(:class:`~repro.runtime.queue_runtime.FunctionalTrainer`, the elastic
and resilient trainers) run that loop on the thread-backed runtime;
:func:`serial_reference` runs it single-threaded, and
:func:`tree_reduce_order` replays the tree runtime's summation order so
the two agree bit for bit.

The point is the paper's accuracy-neutrality claim at training-loop
scope: the chained, overlapped execution must produce *exactly* the
weights a straightforward serial implementation computes (same reduction
tree, so bit-identical floating point).  This module imports no engine,
so a check that needs only the oracle loads no runtime.
"""

from __future__ import annotations

import sys
import weakref
from typing import Callable

import numpy as np

from repro.dnn.layers import NetworkModel
from repro.runtime.memory import ChunkLayout
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
