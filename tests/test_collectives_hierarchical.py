"""Tests for the hierarchical (multi-node) AllReduce extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.collectives.hierarchical import (
    ClusterSpec,
    hierarchical_allreduce,
    hierarchical_resources,
    simulate_hierarchical,
)
from repro.collectives.verification import check_allreduce, delivers_in_order


class TestClusterSpec:
    def test_global_ids(self):
        cluster = ClusterSpec(nnodes=3, gpus_per_node=4)
        assert cluster.global_id(0, 0) == 0
        assert cluster.global_id(2, 3) == 11
        assert cluster.total_gpus == 12

    def test_node_of(self):
        cluster = ClusterSpec(nnodes=3, gpus_per_node=4)
        assert cluster.node_of(0) == 0
        assert cluster.node_of(11) == 2

    def test_is_inter_node(self):
        cluster = ClusterSpec(nnodes=2, gpus_per_node=4)
        assert cluster.is_inter_node(0, 4)
        assert not cluster.is_inter_node(1, 3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterSpec(nnodes=1)
        with pytest.raises(ConfigError):
            ClusterSpec(nnodes=2, gpus_per_node=1)


class TestCorrectness:
    @given(
        nnodes=st.integers(min_value=2, max_value=4),
        gpn=st.integers(min_value=2, max_value=6),
        k=st.integers(min_value=1, max_value=3),
        overlapped=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_symbolic_allreduce(self, nnodes, gpn, k, overlapped):
        cluster = ClusterSpec(nnodes=nnodes, gpus_per_node=gpn)
        schedule = hierarchical_allreduce(
            cluster, float(cluster.total_gpus * k * 10),
            nchunks=k, overlapped=overlapped,
        )
        check_allreduce(schedule)


class TestResources:
    def test_inter_node_edges_get_network_channels(self):
        cluster = ClusterSpec(
            nnodes=2, gpus_per_node=4,
            intra_beta=1e-9, inter_beta=4e-9,
        )
        schedule = hierarchical_allreduce(cluster, 800.0, nchunks=2)
        resources = hierarchical_resources(schedule, cluster)
        inter = [
            resources[key] for key in schedule.dag.resources()
            if isinstance(key, tuple) and key[0] == "edge"
            and cluster.is_inter_node(key[1], key[2])
        ]
        assert inter
        assert all(chan.beta == 4e-9 for chan in inter)


class TestTiming:
    def test_overlap_beats_barriers(self):
        cluster = ClusterSpec(nnodes=4)
        base = simulate_hierarchical(
            cluster, 64e6, nchunks=32, overlapped=False
        )
        over = simulate_hierarchical(
            cluster, 64e6, nchunks=32, overlapped=True
        )
        assert over.total_time < base.total_time
        assert base.total_time / over.total_time > 1.5

    def test_turnaround_improves_with_overlap(self):
        cluster = ClusterSpec(nnodes=4)
        base = simulate_hierarchical(
            cluster, 64e6, nchunks=32, overlapped=False
        )
        over = simulate_hierarchical(
            cluster, 64e6, nchunks=32, overlapped=True
        )
        assert base.turnaround / over.turnaround > 5.0

    def test_in_order_delivery(self):
        cluster = ClusterSpec(nnodes=2, gpus_per_node=4)
        outcome = simulate_hierarchical(
            cluster, 8000.0, nchunks=4, overlapped=True
        )
        assert delivers_in_order(outcome)

    def test_single_chunk_overlap_equals_baseline(self):
        cluster = ClusterSpec(nnodes=2, gpus_per_node=4)
        base = simulate_hierarchical(
            cluster, 8000.0, nchunks=1, overlapped=False
        )
        over = simulate_hierarchical(
            cluster, 8000.0, nchunks=1, overlapped=True
        )
        assert over.total_time == pytest.approx(base.total_time)

    def test_slow_fabric_dominates(self):
        fast_net = ClusterSpec(nnodes=4, inter_beta=1.0 / 25e9)
        slow_net = ClusterSpec(nnodes=4, inter_beta=1.0 / 2.5e9)
        fast = simulate_hierarchical(fast_net, 16e6, nchunks=16)
        slow = simulate_hierarchical(slow_net, 16e6, nchunks=16)
        assert slow.total_time > 2 * fast.total_time
