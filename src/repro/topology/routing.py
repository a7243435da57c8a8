"""Routing over physical topologies: minimal paths and detour routes.

The paper's detour routes (Section IV-A) are *static* non-minimal routes:
when two tree-adjacent GPUs share no NVLink, traffic is forwarded through
an intermediate GPU (GPU0 or GPU1 on the DGX-1) instead of falling back to
PCIe through the host.  The router below reproduces that policy: direct
link if one exists, otherwise a two-hop detour preferring the designated
detour nodes, otherwise a BFS shortest path.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

from repro.errors import RoutingError

if TYPE_CHECKING:
    from repro.topology.base import PhysicalTopology


class Router:
    """Static source router over a :class:`PhysicalTopology`.

    Args:
        topo: the physical topology to route over.
        detour_preference: node ids to prefer (in order) as the intermediate
            hop of a two-hop detour; e.g. ``(0, 1)`` on the DGX-1.
    """

    def __init__(
        self,
        topo: PhysicalTopology,
        *,
        detour_preference: Sequence[int] = (),
    ):
        self._topo = topo
        self._detour_preference = tuple(detour_preference)

    def route(self, src: int, dst: int) -> list[int]:
        """Node path from ``src`` to ``dst`` (inclusive).

        Policy: direct channel if present; otherwise a two-hop detour
        through a preferred detour node; otherwise any two-hop detour;
        otherwise the BFS shortest path.

        Raises:
            RoutingError: if ``dst`` is unreachable from ``src``.
        """
        if src == dst:
            raise RoutingError(f"route requested from node {src} to itself")
        if self._topo.has_link(src, dst):
            return [src, dst]
        detour = self.detour_route(src, dst)
        if detour is not None:
            return detour
        return self.shortest_path(src, dst)

    def detour_route(self, src: int, dst: int) -> list[int] | None:
        """Two-hop route ``src -> w -> dst``, or None if no such ``w``.

        Preferred detour nodes are tried first, then any GPU in id order.
        """
        candidates = list(self._detour_preference) + [
            n for n in self._topo.gpu_ids() if n not in self._detour_preference
        ]
        for w in candidates:
            if w in (src, dst):
                continue
            if self._topo.has_link(src, w) and self._topo.has_link(w, dst):
                return [src, w, dst]
        return None

    def shortest_path(self, src: int, dst: int) -> list[int]:
        """BFS shortest path by hop count.

        Raises:
            RoutingError: if ``dst`` is unreachable.
        """
        prev: dict[int, int] = {src: src}
        queue: deque[int] = deque([src])
        while queue:
            node = queue.popleft()
            if node == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(prev[path[-1]])
                return path[::-1]
            for nxt in self._topo.neighbors(node):
                if nxt not in prev:
                    prev[nxt] = node
                    queue.append(nxt)
        raise RoutingError(
            f"node {dst} unreachable from {src} in {self._topo.name!r}"
        )
