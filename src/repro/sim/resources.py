"""Resources the simulator schedules ops onto.

Two resource kinds cover everything the paper needs:

- :class:`Channel` — a unidirectional physical link modelled with the
  classic linear (alpha-beta) communication cost: a transfer of ``n`` bytes
  occupies the channel for ``alpha + beta * n`` seconds.  A bidirectional
  NVLink is two Channel resources, one per direction (paper Observation #2
  relies on exactly this).
- :class:`Processor` — a serializing compute resource (a GPU's SMs, or the
  slice of them given to forwarding/reduction kernels).  Service time is
  the op's explicit ``duration``.

So the DES prices every op by one rule: its explicit duration when it has
one, else ``alpha + beta * nbytes`` on its channel.

Every parameter and every size or duration a resource prices must be
finite: a NaN or infinity raises :class:`~repro.errors.SimulationError`
instead of turning into a NaN or infinite timing.  (An op's ``duration``
of ``None`` means "no explicit duration"; a :class:`~repro.sim.dag.Dag`
stores it as NaN, so a NaN duration passed to ``Dag.add`` means the same.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from repro.errors import SimulationError
from repro.sim.dag import Op


class Resource(Protocol):
    """Anything that can serve ops, one at a time."""

    def service_time(self, op: Op) -> float:
        """Time the resource is occupied by ``op``."""
        ...


@dataclass(frozen=True)
class Channel:
    """A unidirectional link with latency ``alpha`` and inverse-bandwidth
    ``beta`` (seconds per byte).

    Attributes:
        alpha: per-message latency in seconds.
        beta: seconds per byte (1 / bandwidth).
        name: optional human-readable name for traces.
    """

    alpha: float
    beta: float
    name: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise SimulationError(
                f"channel {self.name!r}: alpha and beta must be finite and "
                f"non-negative, got {self.alpha!r} and {self.beta!r}"
            )

    @property
    def bandwidth(self) -> float:
        """Bytes per second (``inf`` when beta == 0)."""
        return float("inf") if self.beta == 0 else 1.0 / self.beta

    def transfer_time(self, nbytes: float) -> float:
        """alpha + beta * nbytes for an ``nbytes``-byte message."""
        if not 0 <= nbytes < math.inf:
            raise SimulationError(
                "transfer size must be finite and non-negative, "
                f"got {nbytes!r}"
            )
        return self.alpha + self.beta * nbytes

    def service_time(self, op: Op) -> float:
        if op.duration is not None:
            return _finite_duration(op, self.name)
        return self.transfer_time(op.nbytes)


@dataclass(frozen=True)
class Processor:
    """A serializing compute resource; ops must carry explicit durations.

    Attributes:
        name: optional human-readable name for traces.
    """

    name: str = ""

    def service_time(self, op: Op) -> float:
        if op.duration is None:
            raise SimulationError(
                f"processor {self.name!r} got op {op.op_id} without a duration"
            )
        return _finite_duration(op, self.name)


def _finite_duration(op: Op, name: str) -> float:
    """``op.duration``, which must be finite."""
    if not math.isfinite(op.duration):
        raise SimulationError(
            f"resource {name!r} got op {op.op_id} with non-finite "
            f"duration {op.duration!r}"
        )
    return op.duration
