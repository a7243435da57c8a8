"""Embedding over multi-hop routes (switch fabrics, long detours)."""

import pytest

from repro.collectives import tree_allreduce, simulate_on_physical
from repro.collectives.verification import check_allreduce_simulated
from repro.sim.dag import Dag
from repro.topology.base import PhysicalTopology, chan_key
from repro.topology.embedding import edge_key, embed_on_physical
from repro.topology.routing import Router
from repro.topology.switch import switch_topology


def line_topology(n=5):
    topo = PhysicalTopology(nnodes=n, name="line")
    for i in range(n - 1):
        topo.add_link(i, i + 1, alpha=1e-6, beta=1e-9)
    return topo


class TestMultiHopEmbedding:
    def test_three_hop_route_chains_three_transfers(self):
        topo = line_topology()
        router = Router(topo)
        dag = Dag()
        dag.add(edge_key(0, 3), nbytes=8.0, src=0, dst=3)
        physical, report = embed_on_physical(dag, topo, router)
        hops = [op for op in physical if op.resource[0] == "chan"]
        assert [op.resource for op in hops] == [
            chan_key(0, 1, 0), chan_key(1, 2, 0), chan_key(2, 3, 0)
        ]
        assert hops[1].deps == (hops[0].op_id,)
        assert hops[2].deps == (hops[1].op_id,)
        assert report.logical_done[0] == hops[2].op_id

    def test_multi_hop_forwarding_charged_to_each_intermediate(self):
        topo = line_topology()
        router = Router(topo)
        dag = Dag()
        dag.add(edge_key(0, 4), nbytes=10.0, src=0, dst=4)
        _physical, report = embed_on_physical(dag, topo, router)
        assert report.forwarded_bytes == {1: 10.0, 2: 10.0, 3: 10.0}
        assert report.detour_transfers == 1

    def test_store_and_forward_latency_accumulates(self):
        """Each hop is a full store-and-forward transfer: a 3-hop path
        takes 3x a direct transfer."""
        topo = line_topology()
        router = Router(topo)
        dag_direct = Dag()
        dag_direct.add(edge_key(0, 1), nbytes=1000.0, src=0, dst=1)
        dag_far = Dag()
        dag_far.add(edge_key(0, 3), nbytes=1000.0, src=0, dst=3)
        from repro.sim.engine import DagSimulator

        resources = topo.to_resources()
        p_direct, r_direct = embed_on_physical(dag_direct, topo, router)
        p_far, r_far = embed_on_physical(dag_far, topo, router)
        # The transfer's last hop; the relays' forwarding ops run beside
        # the data path.
        t_direct = DagSimulator(resources).run(p_direct).finish[
            r_direct.logical_done[0]
        ]
        t_far = DagSimulator(resources).run(p_far).finish[
            r_far.logical_done[0]
        ]
        assert t_far == pytest.approx(3 * t_direct)


class TestSwitchFabricEmbedding:
    def test_tree_allreduce_over_explicit_switches(self):
        """A small tree AllReduce embedded through leaf/spine switches:
        the routes traverse switch nodes, and the collective is still
        correct in the simulated order."""
        topo = switch_topology(4, radix=2)
        router = Router(topo)
        schedule = tree_allreduce(4, 4000.0, nchunks=2)
        outcome = simulate_on_physical(schedule, topo, router=router)
        check_allreduce_simulated(outcome)
        assert outcome.total_time > 0

    def test_switch_paths_slower_than_direct(self):
        direct = PhysicalTopology(nnodes=4, name="full")
        for u in range(4):
            for v in range(u + 1, 4):
                direct.add_link(u, v, alpha=2e-6, beta=1 / 25e9)
        switched = switch_topology(4, radix=2, link_alpha=2e-6,
                                   link_beta=1 / 25e9)
        schedule = tree_allreduce(4, 4e6, nchunks=4)
        t_direct = simulate_on_physical(schedule, direct).total_time
        t_switched = simulate_on_physical(schedule, switched).total_time
        assert t_switched > t_direct
