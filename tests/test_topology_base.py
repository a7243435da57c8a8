"""Unit tests for the physical topology model."""

import pytest

from repro.errors import TopologyError
from repro.sim.resources import Channel, Processor
from repro.topology.base import (
    LinkKind,
    PhysicalTopology,
    chan_key,
    gpu_key,
)


def lanes(topo):
    """Directed channels: the simulator gets one Channel per lane."""
    return sum(
        isinstance(r, Channel) for r in topo.to_resources().values()
    )


def line_topo(n=4):
    topo = PhysicalTopology(nnodes=n, name="line")
    for i in range(n - 1):
        topo.add_link(i, i + 1, alpha=1e-6, beta=1e-9)
    return topo


class TestLinkManagement:
    def test_bidirectional_adds_both_directions(self):
        topo = line_topo()
        assert topo.has_link(0, 1)
        assert topo.has_link(1, 0)

    def test_parallel_links_become_lanes(self):
        topo = PhysicalTopology(nnodes=2)
        topo.add_link(0, 1, alpha=0, beta=0)
        topo.add_link(0, 1, alpha=0, beta=0)
        assert topo.lane_count(0, 1) == 2
        assert topo.lane_count(1, 0) == 2

    def test_lane_count_zero_when_disconnected(self):
        assert line_topo().lane_count(0, 3) == 0

    def test_self_link_rejected(self):
        topo = PhysicalTopology(nnodes=2)
        with pytest.raises(TopologyError, match="self-link"):
            topo.add_link(0, 0, alpha=0, beta=0)

    def test_unknown_node_rejected(self):
        topo = PhysicalTopology(nnodes=2)
        with pytest.raises(TopologyError, match="unknown node"):
            topo.add_link(0, 5, alpha=0, beta=0)

    def test_link_lookup(self):
        topo = line_topo()
        spec = topo.link(0, 1)
        assert (spec.u, spec.v, spec.lane) == (0, 1, 0)
        assert spec.kind is LinkKind.NVLINK

    def test_missing_link_lookup_raises(self):
        with pytest.raises(TopologyError, match="no channel"):
            line_topo().link(0, 3)


class TestQueries:
    def test_neighbors_sorted(self):
        topo = line_topo()
        assert topo.neighbors(1) == [0, 2]
        assert topo.neighbors(0) == [1]

    def test_gpu_ids(self):
        assert line_topo().gpu_ids() == [0, 1, 2, 3]

    def test_total_lanes_counts_directed_channels(self):
        assert lanes(line_topo()) == 6  # 3 links x 2 directions

    def test_links_iterates_all_specs(self):
        specs = list(line_topo().links())
        assert len(specs) == 6


class TestResources:
    def test_to_resources_has_channels_and_gpus(self):
        resources = line_topo().to_resources()
        assert isinstance(resources[chan_key(0, 1)], Channel)
        assert isinstance(resources[gpu_key(2)], Processor)
        assert len(resources) == 6 + 4

    def test_channel_parameters_preserved(self):
        topo = PhysicalTopology(nnodes=2)
        topo.add_link(0, 1, alpha=3e-6, beta=2e-9)
        chan = topo.to_resources()[chan_key(0, 1)]
        assert chan.alpha == 3e-6
        assert chan.beta == 2e-9

    def test_validate_passes_on_dense_lanes(self):
        line_topo().validate()


class TestWithoutLink:
    def test_removes_both_directions(self):
        degraded = line_topo().without_link(1, 2)
        assert not degraded.has_link(1, 2)
        assert not degraded.has_link(2, 1)
        assert degraded.has_link(0, 1)
        assert lanes(degraded) == 4

    def test_original_untouched(self):
        topo = line_topo()
        topo.without_link(1, 2)
        assert topo.has_link(1, 2)
        assert lanes(topo) == 6

    def test_removes_every_lane_of_a_doubled_link(self):
        topo = PhysicalTopology(nnodes=2, name="double")
        topo.add_link(0, 1, alpha=1e-6, beta=1e-9)
        topo.add_link(0, 1, alpha=1e-6, beta=1e-9)  # second brick
        degraded = topo.without_link(0, 1)
        assert lanes(degraded) == 0

    def test_surviving_lanes_stay_dense(self):
        topo = PhysicalTopology(nnodes=3, name="tri")
        topo.add_link(0, 1, alpha=1e-6, beta=1e-9)
        topo.add_link(0, 1, alpha=2e-6, beta=2e-9)
        topo.add_link(1, 2, alpha=1e-6, beta=1e-9)
        degraded = topo.without_link(1, 2)
        degraded.validate()
        assert degraded.lane_count(0, 1) == 2
        assert degraded.link(0, 1, 1).alpha == 2e-6

    def test_missing_link_rejected(self):
        with pytest.raises(TopologyError, match="cannot fail missing link"):
            line_topo().without_link(0, 3)

    def test_name_records_the_failure(self):
        assert line_topo().without_link(1, 2).name == "line-minus-1-2"

    def test_single_lane_failure_keeps_duplicate(self):
        topo = PhysicalTopology(nnodes=2, name="double")
        topo.add_link(0, 1, alpha=1e-6, beta=1e-9)
        topo.add_link(0, 1, alpha=2e-6, beta=2e-9)  # second brick
        degraded = topo.without_link(0, 1, lane=0)
        degraded.validate()
        # The surviving brick re-densifies onto lane 0 in each direction.
        assert degraded.lane_count(0, 1) == 1
        assert degraded.lane_count(1, 0) == 1
        assert degraded.link(0, 1, 0).alpha == 2e-6

    def test_lane_failure_name_records_the_lane(self):
        topo = PhysicalTopology(nnodes=2, name="double")
        topo.add_link(0, 1, alpha=1e-6, beta=1e-9)
        topo.add_link(0, 1, alpha=1e-6, beta=1e-9)
        assert topo.without_link(0, 1, lane=1).name == "double-minus-0-1l1"

    def test_missing_lane_rejected(self):
        with pytest.raises(TopologyError, match="cannot fail missing lane"):
            line_topo().without_link(1, 2, lane=1)


class TestWithoutGpu:
    def test_removes_every_touching_channel(self):
        degraded = line_topo().without_gpu(1)
        assert not degraded.has_link(0, 1)
        assert not degraded.has_link(1, 0)
        assert not degraded.has_link(1, 2)
        assert not degraded.has_link(2, 1)
        assert degraded.has_link(2, 3)
        # 6 directed channels minus the 4 touching GPU 1.
        assert lanes(degraded) == 2

    def test_node_id_stays_isolated(self):
        degraded = line_topo().without_gpu(1)
        assert degraded.nnodes == 4
        assert degraded.neighbors(1) == []

    def test_original_untouched(self):
        topo = line_topo()
        topo.without_gpu(1)
        assert topo.has_link(1, 2)
        assert lanes(topo) == 6

    def test_name_records_the_failure(self):
        assert line_topo().without_gpu(2).name == "line-minus-gpu2"

    def test_unknown_gpu_rejected(self):
        with pytest.raises(TopologyError, match="cannot fail unknown gpu"):
            line_topo().without_gpu(9)

    def test_switch_node_rejected(self):
        topo = PhysicalTopology(
            nnodes=2, name="switched", switch_ids=frozenset({2})
        )
        topo.add_link(0, 2, alpha=0, beta=0)
        topo.add_link(1, 2, alpha=0, beta=0)
        with pytest.raises(TopologyError, match="cannot fail unknown gpu"):
            topo.without_gpu(2)

    def test_too_few_survivors_rejected(self):
        topo = PhysicalTopology(nnodes=2, name="pair")
        topo.add_link(0, 1, alpha=0, beta=0)
        with pytest.raises(TopologyError, match="fewer than 2 surviving"):
            topo.without_gpu(0)

    def test_surviving_lanes_stay_dense(self):
        topo = PhysicalTopology(nnodes=3, name="tri")
        topo.add_link(0, 1, alpha=1e-6, beta=1e-9)
        topo.add_link(0, 1, alpha=2e-6, beta=2e-9)
        topo.add_link(1, 2, alpha=1e-6, beta=1e-9)
        degraded = topo.without_gpu(2)
        degraded.validate()
        assert degraded.lane_count(0, 1) == 2
        assert degraded.link(0, 1, 1).alpha == 2e-6
