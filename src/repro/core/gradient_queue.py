"""Gradient queuing (paper Section III-D, Fig. 9).

Gradient queuing is the mechanism that lets C-Cube chain communication
with the *next* iteration's forward computation.  Because the tree
algorithm reduces and broadcasts chunks **in order** (Observation #3),
the gradient buffer itself doubles as a FIFO queue: a chunk that finishes
the broadcast phase is "enqueued" by bumping an **enqueue semaphore**, and
layer *i*'s forward pass may "dequeue" — begin — once the semaphore
reaches the layer's last-chunk offset recorded in the **layer-chunk
table**.  A **layer index counter** (LIC) tracks the next layer awaiting
dequeue, guaranteeing forward passes start strictly in layer order.

The double tree delivers two independent in-order chunk streams (one per
tree), so the queue keeps one enqueue semaphore per stream; a layer is
ready when *every* stream has delivered that layer's chunks.

This module holds the timing-model side: :func:`layer_ready_times` says
when each layer may dequeue, given when each chunk arrived.  The
layer-chunk table, enqueue semaphores and LIC themselves live in
:mod:`repro.runtime.queue_runtime` (:func:`layer_requirements`), over
the thread-backed virtual GPUs and the paper's device-side semaphores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ScheduleError
from repro.collectives.chunking import chunks_covering

if TYPE_CHECKING:
    from repro.collectives.base import CollectiveSchedule
    from repro.dnn.layers import NetworkModel


def layer_ready_times(
    network: NetworkModel,
    schedule: CollectiveSchedule,
    chunk_available: dict[int, float],
) -> list[float]:
    """When each layer's gradients are fully available: layer *i*'s
    forward pass may start once the last chunk covering it is available
    (``chunk_available``, simulated), the queue's timing model."""
    ready: list[float] = []
    for layer_idx in range(len(network)):
        lo, hi = network.byte_range(layer_idx)
        if hi <= lo:
            ready.append(0.0)
            continue
        covering = chunks_covering(schedule.chunk_sizes, (float(lo), float(hi)))
        if not covering:
            raise ScheduleError(
                f"layer {layer_idx} of {network.name!r} maps to no chunks"
            )
        ready.append(max(chunk_available[c] for c in covering))
    return ready
