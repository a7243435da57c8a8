"""Tests for scale-out switch fabrics."""

import pytest

from repro.errors import TopologyError
from repro.topology.switch import (
    FabricSpec,
    fat_tree_fabric,
    fat_tree_levels,
    fat_tree_topology,
    switch_topology,
)


class TestFatTreeLevels:
    def test_one_level_when_radix_covers(self):
        assert fat_tree_levels(8, 16) == 1

    def test_two_levels(self):
        assert fat_tree_levels(64, 16) == 2

    def test_three_levels(self):
        assert fat_tree_levels(1024, 16) == 3

    def test_bad_inputs(self):
        with pytest.raises(TopologyError):
            fat_tree_levels(1, 16)
        with pytest.raises(TopologyError):
            fat_tree_levels(8, 1)


class TestFatTreeFabric:
    def test_alpha_grows_with_scale(self):
        small = fat_tree_fabric(8, radix=16)
        large = fat_tree_fabric(1024, radix=16)
        assert large.alpha > small.alpha

    def test_beta_is_link_beta(self):
        fabric = fat_tree_fabric(64, link_beta=1e-9)
        assert fabric.beta == 1e-9

    def test_lanes_passthrough(self):
        assert fat_tree_fabric(8, lanes=2).lanes == 2

    def test_name_mentions_levels(self):
        assert "L2" in fat_tree_fabric(64, radix=16).name


class TestFabricSpec:
    @pytest.mark.parametrize("lanes", [0, -1])
    def test_lanes_below_one_rejected(self, lanes):
        with pytest.raises(TopologyError, match="at least 1 lane"):
            FabricSpec(nnodes=8, alpha=1e-6, beta=1e-9, lanes=lanes)
        with pytest.raises(TopologyError, match="at least 1 lane"):
            fat_tree_fabric(8, lanes=lanes)

    @pytest.mark.parametrize("nnodes", [1, 0])
    def test_fewer_than_two_nodes_rejected(self, nnodes):
        with pytest.raises(TopologyError, match="at least 2 nodes"):
            FabricSpec(nnodes=nnodes, alpha=1e-6, beta=1e-9)


class TestSwitchTopology:
    def test_gpu_and_switch_counts(self):
        topo = switch_topology(16, radix=8)
        assert topo.nnodes == 16
        # 2 leaf switches + 1 spine
        assert len(topo.switch_ids) == 3

    def test_gpus_attach_to_leaves(self):
        topo = switch_topology(16, radix=8)
        leaf_of_gpu0 = topo.neighbors(0)
        assert len(leaf_of_gpu0) == 1
        assert leaf_of_gpu0[0] in topo.switch_ids

    def test_leaves_attach_to_spine(self):
        topo = switch_topology(16, radix=8)
        spine = max(topo.switch_ids)
        leaves = sorted(topo.switch_ids - {spine})
        for leaf in leaves:
            assert topo.has_link(leaf, spine)

    def test_gpus_reach_each_other(self):
        from repro.topology.routing import Router

        topo = switch_topology(16, radix=8)
        path = Router(topo).route(0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert all(n in topo.switch_ids for n in path[1:-1])

    def test_alias(self):
        assert fat_tree_topology(8).nnodes == 8

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            switch_topology(1)
