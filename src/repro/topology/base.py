"""Physical topology model.

A physical topology is a set of nodes (GPUs, and possibly switches) joined
by *unidirectional* channels.  A bidirectional NVLink contributes one channel
in each direction; a doubled NVLink (two physical bricks between the same
GPU pair, as GPU2-GPU3 and GPU6-GPU7 on the DGX-1 in the paper) contributes
two *lanes* in each direction.

Channels are identified by ``(u, v, lane)``.  The simulator resource key for
a channel is ``("chan", u, v, lane)``; GPU compute resources use
``("gpu", i)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Iterator

from repro.errors import TopologyError
from repro.sim.resources import Channel, Processor


class LinkKind(enum.Enum):
    """What medium a channel models (affects default alpha/beta)."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    NETWORK = "network"


@dataclass(frozen=True)
class LinkSpec:
    """One unidirectional channel between two nodes.

    Attributes:
        u: source node id.
        v: destination node id.
        lane: lane index (0-based) among parallel channels from u to v.
        alpha: per-message latency (seconds).
        beta: seconds per byte.
        kind: medium of the link.
    """

    u: int
    v: int
    lane: int
    alpha: float
    beta: float
    kind: LinkKind = LinkKind.NVLINK

    @property
    def resource_key(self) -> tuple:
        return chan_key(self.u, self.v, self.lane)

    def to_channel(self) -> Channel:
        return Channel(
            alpha=self.alpha, beta=self.beta, name=f"{self.u}->{self.v}#{self.lane}"
        )


#: One shared tuple per distinct resource key.  A schedule names the same
#: few dozen channels from thousands of ops; sharing the key keeps one
#: tuple per channel alive instead of one per op.
_RESOURCE_KEYS: dict[tuple, tuple] = {}


def intern_key(key: tuple) -> tuple:
    """The shared tuple equal to ``key`` (``key`` itself on first use)."""
    return _RESOURCE_KEYS.setdefault(key, key)


def chan_key(u: int, v: int, lane: int = 0) -> tuple:
    """Resource key for the physical channel ``u -> v`` on ``lane``."""
    return intern_key(("chan", u, v, lane))


def gpu_key(i: int) -> tuple:
    """Resource key for GPU ``i``'s compute."""
    return intern_key(("gpu", i))


@dataclass
class PhysicalTopology:
    """A collection of nodes and unidirectional channels.

    Attributes:
        nnodes: number of compute nodes (GPUs); node ids are 0..nnodes-1.
        name: human-readable topology name.
        switch_ids: ids (>= nnodes) of any switch nodes present.
    """

    nnodes: int
    name: str = ""
    switch_ids: frozenset[int] = frozenset()
    _links: dict[tuple[int, int, int], LinkSpec] = field(default_factory=dict)

    def add_link(
        self,
        u: int,
        v: int,
        *,
        alpha: float,
        beta: float,
        kind: LinkKind = LinkKind.NVLINK,
    ) -> None:
        """Add the channel pair ``u -> v`` and ``v -> u``.

        Parallel calls for the same (u, v) add extra lanes.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-link at node {u}")
        for a, b in ((u, v), (v, u)):
            lane = self.lane_count(a, b)
            self._links[(a, b, lane)] = LinkSpec(
                u=a, v=b, lane=lane, alpha=alpha, beta=beta, kind=kind
            )

    def _check_node(self, n: int) -> None:
        if not (0 <= n < self.nnodes or n in self.switch_ids):
            raise TopologyError(f"unknown node id {n} in topology {self.name!r}")

    # -- queries ---------------------------------------------------------

    def lane_count(self, u: int, v: int) -> int:
        """Number of parallel channels from u to v (0 if disconnected)."""
        lane = 0
        while (u, v, lane) in self._links:
            lane += 1
        return lane

    def has_link(self, u: int, v: int) -> bool:
        return (u, v, 0) in self._links

    def link(self, u: int, v: int, lane: int = 0) -> LinkSpec:
        try:
            return self._links[(u, v, lane)]
        except KeyError:
            raise TopologyError(
                f"no channel {u}->{v} lane {lane} in topology {self.name!r}"
            ) from None

    def links(self) -> Iterator[LinkSpec]:
        return iter(self._links.values())

    def neighbors(self, u: int) -> list[int]:
        """Nodes reachable from ``u`` over a single channel, sorted."""
        return sorted({v for (a, v, _lane) in self._links if a == u})

    def gpu_ids(self) -> list[int]:
        return list(range(self.nnodes))

    # -- degradation -----------------------------------------------------

    def without_link(
        self, u: int, v: int, *, lane: int | None = None,
    ) -> "PhysicalTopology":
        """Copy of this topology with the links ``u -> v`` and ``v -> u``
        removed — a failed NVLink brick pair.

        By default every lane between the pair fails together; passing
        ``lane`` fails only that brick, so a doubled link (GPU2-GPU3 /
        GPU6-GPU7 on the DGX-1) can lose one brick while its same-pair
        duplicate survives.  Surviving lanes are re-densified.

        Raises:
            TopologyError: if no such link (or lane) exists to fail.
        """
        if not self.has_link(u, v):
            raise TopologyError(
                f"cannot fail missing link {u}->{v} in {self.name!r}"
            )
        if lane is not None and (u, v, lane) not in self._links:
            raise TopologyError(
                f"cannot fail missing lane {lane} of link {u}->{v} "
                f"in {self.name!r}"
            )
        dropped = {(u, v), (v, u)}
        suffix = f"-minus-{u}-{v}" + (f"l{lane}" if lane is not None else "")
        degraded = PhysicalTopology(
            nnodes=self.nnodes,
            name=f"{self.name}{suffix}",
            switch_ids=self.switch_ids,
        )
        for spec in self._links.values():
            if (spec.u, spec.v) in dropped and (
                lane is None or spec.lane == lane
            ):
                continue
            new_lane = degraded.lane_count(spec.u, spec.v)
            degraded._links[(spec.u, spec.v, new_lane)] = LinkSpec(
                u=spec.u, v=spec.v, lane=new_lane,
                alpha=spec.alpha, beta=spec.beta, kind=spec.kind,
            )
        degraded.validate()
        return degraded

    def without_gpu(self, gpu: int) -> "PhysicalTopology":
        """Copy of this topology with every channel touching ``gpu``
        removed — a crashed GPU.

        The node id itself stays (ids remain ``0..nnodes-1``); the dead
        GPU is simply isolated.  Compacting the survivors to dense ids is
        the job of :func:`repro.topology.tree_search.survivor_topology`.

        Raises:
            TopologyError: if ``gpu`` is not a compute node of this
                topology (switches cannot be failed this way), or if
                failing it would leave fewer than two connected GPUs.
        """
        if not (0 <= gpu < self.nnodes):
            raise TopologyError(
                f"cannot fail unknown gpu {gpu} in topology {self.name!r}"
            )
        if self.nnodes <= 2:
            raise TopologyError(
                f"cannot fail gpu {gpu}: topology {self.name!r} would "
                "have fewer than 2 surviving GPUs"
            )
        degraded = PhysicalTopology(
            nnodes=self.nnodes,
            name=f"{self.name}-minus-gpu{gpu}",
            switch_ids=self.switch_ids,
        )
        for spec in self._links.values():
            if gpu in (spec.u, spec.v):
                continue
            lane = degraded.lane_count(spec.u, spec.v)
            degraded._links[(spec.u, spec.v, lane)] = LinkSpec(
                u=spec.u, v=spec.v, lane=lane,
                alpha=spec.alpha, beta=spec.beta, kind=spec.kind,
            )
        degraded.validate()
        return degraded

    # -- simulator resources --------------------------------------------

    def to_resources(self) -> dict[Hashable, object]:
        """Build the simulator resource map: one Channel per physical lane
        plus one Processor per GPU, which prices an op by its duration."""
        resources: dict[Hashable, object] = {}
        for spec in self._links.values():
            resources[spec.resource_key] = spec.to_channel()
        for i in self.gpu_ids():
            resources[gpu_key(i)] = Processor(name=f"gpu{i}")
        return resources

    def validate(self) -> None:
        """Sanity checks: lanes dense per pair, endpoints known."""
        pairs: dict[tuple[int, int], int] = {}
        for (u, v, lane) in self._links:
            pairs[(u, v)] = max(pairs.get((u, v), 0), lane + 1)
        for (u, v), count in pairs.items():
            for lane in range(count):
                if (u, v, lane) not in self._links:
                    raise TopologyError(
                        f"lanes not dense for {u}->{v} in {self.name!r}"
                    )
