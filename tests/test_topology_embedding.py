"""Tests for embedding logical-edge DAGs onto physical channels."""

import pytest

from repro.collectives.halving_doubling import halving_doubling_allreduce
from repro.sim.dag import Dag, Label, Phase
from repro.sim.engine import DagSimulator
from repro.topology.base import chan_key, gpu_key
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.embedding import (
    abstract_resources,
    edge_key,
    embed_on_physical,
    is_edge_key,
)
from repro.topology.routing import Router


@pytest.fixture
def setup():
    topo = dgx1_topology()
    return topo, Router(topo, detour_preference=DETOUR_NODES)


class TestEdgeKeys:
    def test_edge_key_shape(self):
        assert edge_key(1, 2, 3) == ("edge", 1, 2, 3)

    def test_is_edge_key(self):
        assert is_edge_key(edge_key(0, 1))
        assert not is_edge_key(chan_key(0, 1))
        assert not is_edge_key("edge")

    def test_key_helpers_share_one_tuple_per_key(self):
        assert edge_key(1, 2) is edge_key(1, 2, 0)
        assert edge_key(1, 2, 1) is edge_key(1, 2, 1)
        assert chan_key(3, 4) is chan_key(3, 4, 0)
        assert gpu_key(5) is gpu_key(5)
        assert chan_key(3, 4) is not edge_key(3, 4)
        link = dgx1_topology().link(2, 3, 1)
        assert link.resource_key is chan_key(2, 3, 1)


class TestDirectEmbedding:
    def test_direct_edge_one_hop(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(0, 1), nbytes=10.0, src=0, dst=1)
        physical, report = embed_on_physical(dag, topo, router)
        assert len(physical) == 1
        assert physical[0].resource == chan_key(0, 1, 0)
        assert report.detour_transfers == 0

    def test_deps_remapped(self, setup):
        topo, router = setup
        dag = Dag()
        a = dag.add(edge_key(0, 1), nbytes=1.0, src=0, dst=1)
        dag.add(edge_key(1, 2), nbytes=1.0, src=1, dst=2, deps=[a])
        physical, report = embed_on_physical(dag, topo, router)
        physical.validate()
        second = physical[report.logical_done[1]]
        assert report.logical_done[0] in second.deps

    def test_non_edge_ops_copied_through(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(gpu_key(0), duration=1.0)
        physical, _ = embed_on_physical(dag, topo, router)
        assert physical[0].resource == gpu_key(0)
        assert physical[0].duration == 1.0


class TestDetourEmbedding:
    def test_detour_becomes_two_hops(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(2, 4), nbytes=8.0, src=2, dst=4)
        physical, report = embed_on_physical(dag, topo, router)
        assert report.detour_transfers == 1
        hops = [op for op in physical if op.resource[0] == "chan"]
        assert [op.resource for op in hops] == [
            chan_key(2, 0, 0), chan_key(0, 4, 0)
        ]
        assert hops[1].deps == (hops[0].op_id,)

    def test_forwarding_charged_to_intermediate_gpu(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(2, 4), nbytes=8.0, src=2, dst=4)
        physical, report = embed_on_physical(dag, topo, router)
        fw_ops = [op for op in physical if op.resource == gpu_key(0)]
        assert len(fw_ops) == 1
        assert report.forwarded_bytes[0] == 8.0
        assert report.relay_routes[0] == {(2, 4, 0)}

    def test_logical_done_is_last_hop(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(2, 4), nbytes=8.0, src=2, dst=4)
        physical, report = embed_on_physical(dag, topo, router)
        last_hop = [op for op in physical if op.resource[0] == "chan"][-1]
        assert report.logical_done[0] == last_hop.op_id
        assert last_hop.dst == 4


class TestFieldsCarried:
    def test_aggregated_transfer_keeps_its_chunks_on_dgx1(self, setup):
        topo, router = setup
        schedule = halving_doubling_allreduce(8, 1e6)
        physical, report = embed_on_physical(schedule.dag, topo, router)
        aggregated = [op for op in schedule.dag if op.chunk_set]
        assert (1, 3, 5, 7) in {op.chunk_set for op in aggregated}
        for op in schedule.dag:
            hop = physical[report.logical_done[op.op_id]]
            assert hop.chunks_carried() == op.chunks_carried()

    def test_detour_hops_and_forwarding_keep_chunk_set(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(2, 4), nbytes=8.0, src=2, dst=4, chunk=1,
                chunk_set=(1, 3), layer=5)
        physical, _ = embed_on_physical(dag, topo, router)
        assert len(physical) == 3  # two hops and one forwarding op
        for op in physical:
            assert op.chunk_set == (1, 3)
            assert op.layer == 5

    def test_non_edge_copy_keeps_chunk_set(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(("sync", 0), duration=0.0, chunk_set=(0, 2), label="mark")
        physical, _ = embed_on_physical(dag, topo, router)
        assert physical[0].chunk_set == (0, 2)
        assert physical[0].label == "mark"

    def test_hop_labels(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(2, 4), nbytes=8.0, src=2, dst=4, chunk=3,
                phase=Phase.REDUCE, label=Label.UP)
        dag.add(edge_key(2, 4), nbytes=8.0, src=2, dst=4, label="rs s1")
        dag.add(edge_key(2, 4), nbytes=8.0, src=2, dst=4)
        physical, _ = embed_on_physical(dag, topo, router)
        assert [op.label for op in physical] == [
            "up c3 2->0", "forward@gpu0", "up c3 0->4",
            "rs s1", "forward@gpu0", "rs s1",
            "hop2->0", "forward@gpu0", "hop0->4",
        ]


class TestLaneAssignment:
    def test_trees_split_across_double_lanes(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(2, 3, 0), nbytes=1.0, src=2, dst=3, tree=0)
        dag.add(edge_key(2, 3, 1), nbytes=1.0, src=2, dst=3, tree=1)
        physical, report = embed_on_physical(dag, topo, router)
        lanes = {op.resource for op in physical}
        assert lanes == {chan_key(2, 3, 0), chan_key(2, 3, 1)}
        assert report.lane_assignments[(2, 3)] == {0, 1}

    def test_trees_share_single_lane_elsewhere(self, setup):
        topo, router = setup
        dag = Dag()
        dag.add(edge_key(0, 1, 0), nbytes=1.0, src=0, dst=1, tree=0)
        dag.add(edge_key(0, 1, 1), nbytes=1.0, src=0, dst=1, tree=1)
        physical, _ = embed_on_physical(dag, topo, router)
        assert {op.resource for op in physical} == {chan_key(0, 1, 0)}


class TestAbstractResources:
    def test_channels_for_edges(self):
        dag = Dag()
        dag.add(edge_key(0, 1), nbytes=1.0)
        dag.add(("sync", 0), duration=0.0)
        resources = abstract_resources(dag, alpha=1e-6, beta=1e-9)
        assert resources[edge_key(0, 1)].alpha == 1e-6
        assert ("sync", 0) in resources

    def test_simulatable_end_to_end(self):
        dag = Dag()
        a = dag.add(edge_key(0, 1), nbytes=1000.0)
        dag.add(edge_key(1, 2), nbytes=1000.0, deps=[a])
        resources = abstract_resources(dag, alpha=0.0, beta=1e-3)
        result = DagSimulator(resources).run(dag)
        assert result.makespan == pytest.approx(2.0)
