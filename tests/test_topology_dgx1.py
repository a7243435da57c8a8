"""Structural tests for the DGX-1 hybrid mesh-cube model."""

import itertools

import pytest

from repro.topology.dgx1 import (
    DOUBLE_LINK_PAIRS,
    NVLINK_ALPHA,
    NVLINK_BANDWIDTH,
    PCIE_ALPHA,
    PCIE_BANDWIDTH,
    dgx1_topology,
)


@pytest.fixture
def topo():
    return dgx1_topology()


class TestStructure:
    def test_eight_gpus(self, topo):
        assert topo.nnodes == 8

    def test_quads_fully_connected(self, topo):
        for quad in ((0, 1, 2, 3), (4, 5, 6, 7)):
            for u, v in itertools.combinations(quad, 2):
                assert topo.has_link(u, v), (u, v)

    def test_cube_edges_present(self, topo):
        for u, v in ((0, 4), (1, 5), (2, 6), (3, 7)):
            assert topo.has_link(u, v)

    def test_cross_pairs_absent(self, topo):
        # The paper's dotted-line pair and friends: no direct NVLink.
        for u, v in ((2, 4), (0, 5), (1, 4), (3, 6), (0, 7), (1, 6)):
            assert not topo.has_link(u, v), (u, v)

    def test_double_links_on_paper_pairs(self, topo):
        for u, v in DOUBLE_LINK_PAIRS:
            assert topo.lane_count(u, v) == 2
            assert topo.lane_count(v, u) == 2

    def test_all_other_pairs_single_lane(self, topo):
        doubles = {frozenset(p) for p in DOUBLE_LINK_PAIRS}
        for u in range(8):
            for v in range(8):
                if u == v or frozenset((u, v)) in doubles:
                    continue
                assert topo.lane_count(u, v) in (0, 1)

    def test_double_links_can_be_disabled(self):
        topo = dgx1_topology(double_links=False)
        for u, v in DOUBLE_LINK_PAIRS:
            assert topo.lane_count(u, v) == 1

    def test_validates(self, topo):
        topo.validate()


class TestParameters:
    def test_default_channel_speed(self, topo):
        spec = topo.link(0, 1)
        assert spec.beta == pytest.approx(1.0 / NVLINK_BANDWIDTH)
        assert spec.alpha == NVLINK_ALPHA

    def test_custom_bandwidth(self):
        topo = dgx1_topology(nvlink_bandwidth=10e9)
        assert topo.link(0, 1).beta == pytest.approx(1e-10)

    def test_pcie_fallback_slower_than_nvlink(self):
        nbytes = 64 * 2**20
        nvlink = NVLINK_ALPHA + nbytes / NVLINK_BANDWIDTH
        # The host fallback the detour routes avoid (detour ablation).
        assert PCIE_ALPHA + nbytes / PCIE_BANDWIDTH > 2 * nvlink
