"""Tests for the static router (minimal + detour routes)."""

import pytest

from repro.errors import RoutingError
from repro.topology.base import PhysicalTopology
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.routing import Router


@pytest.fixture
def dgx_router():
    return Router(dgx1_topology(), detour_preference=DETOUR_NODES)


class TestDirectRoutes:
    def test_direct_link_used(self, dgx_router):
        assert dgx_router.route(0, 1) == [0, 1]

    def test_double_link_pair_direct(self, dgx_router):
        assert dgx_router.route(2, 3) == [2, 3]

    def test_self_route_rejected(self, dgx_router):
        with pytest.raises(RoutingError):
            dgx_router.route(3, 3)


class TestDetourRoutes:
    def test_paper_example_2_to_4_via_gpu0(self, dgx_router):
        # Section IV-A: "communication from GPU2 to GPU4 is made through
        # intermediate GPU (i.e., GPU0)".
        assert dgx_router.route(2, 4) == [2, 0, 4]

    def test_detour_prefers_designated_nodes(self):
        topo = dgx1_topology()
        # 3 -> 5: candidates include GPU1 (3-1, 1-5) and GPU7 (3-7, 7-5);
        # the designated preference (0, 1) must pick GPU1.
        router = Router(topo, detour_preference=DETOUR_NODES)
        assert router.route(3, 5) == [3, 1, 5]

    def test_without_preference_any_two_hop_found(self):
        router = Router(dgx1_topology())
        path = router.route(2, 4)
        assert len(path) == 3
        assert path[0] == 2 and path[-1] == 4

    def test_detour_route_none_when_direct_needed_only(self, dgx_router):
        assert dgx_router.detour_route(0, 1) in (None, [0, 2, 1], [0, 3, 1])

    def test_hop_count(self, dgx_router):
        # Hops are the route's links: 0-1 is direct, 2-4 needs a relay.
        assert len(dgx_router.route(0, 1)) - 1 == 1
        assert len(dgx_router.route(2, 4)) - 1 == 2


class TestShortestPath:
    def test_multi_hop_line(self):
        topo = PhysicalTopology(nnodes=4)
        topo.add_link(0, 1, alpha=0, beta=0)
        topo.add_link(1, 2, alpha=0, beta=0)
        topo.add_link(2, 3, alpha=0, beta=0)
        router = Router(topo)
        assert router.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_unreachable_raises(self):
        topo = PhysicalTopology(nnodes=3)
        topo.add_link(0, 1, alpha=0, beta=0)
        with pytest.raises(RoutingError, match="unreachable"):
            Router(topo).route(0, 2)
