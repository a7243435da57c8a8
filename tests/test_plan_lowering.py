"""DES lowering: the simulated time of a lowered plan must equal the
hand-written schedule simulation's exactly."""

import pytest

from repro.errors import EmbeddingError, PlanError
from repro.collectives.base import simulate_on_fabric, simulate_on_physical
from repro.collectives.double_tree import double_tree_allreduce
from repro.collectives.halving_doubling import halving_doubling_allreduce
from repro.collectives.ring import DGX1_RING_ORDER, ring_allreduce
from repro.collectives.tree import tree_allreduce
from repro.plan import (
    build_double_tree_plan,
    build_halving_doubling_plan,
    build_plan,
    build_ring_plan,
    build_tree_plan,
    lower_to_dag,
    simulate_plan,
)
from repro.sim.dag import Dag
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router
from repro.topology.switch import FabricSpec

N = 64e6

FABRIC = FabricSpec(nnodes=8, alpha=2e-6, beta=1 / 25e9, lanes=2)


def fabric_cases():
    return [
        (
            "ring",
            build_ring_plan(8, N, order=list(DGX1_RING_ORDER)),
            ring_allreduce(8, N, order=list(DGX1_RING_ORDER)),
        ),
        (
            "tree",
            build_tree_plan(8, N, nchunks=8),
            tree_allreduce(8, N, nchunks=8),
        ),
        (
            "tree-ov",
            build_tree_plan(8, N, nchunks=8, overlapped=True),
            tree_allreduce(8, N, nchunks=8, overlapped=True),
        ),
        (
            "double-tree",
            build_double_tree_plan(8, N, nchunks=8, overlapped=True),
            double_tree_allreduce(8, N, nchunks=8, overlapped=True),
        ),
        (
            "halving-doubling",
            build_halving_doubling_plan(8, N),
            halving_doubling_allreduce(8, N),
        ),
    ]


class TestFabricParity:
    @pytest.mark.parametrize(
        "name,plan,schedule",
        fabric_cases(),
        ids=[c[0] for c in fabric_cases()],
    )
    def test_within_tolerance(self, name, plan, schedule):
        planned = simulate_plan(plan, fabric=FABRIC).total_time
        handwritten = simulate_on_fabric(schedule, FABRIC).total_time
        assert planned == handwritten


class TestDgx1Parity:
    def test_double_tree_on_dgx1(self):
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        plan = build_double_tree_plan(
            8, N, nchunks=8, trees=dgx1_trees(), overlapped=True
        )
        schedule = double_tree_allreduce(
            8, N, nchunks=8, trees=dgx1_trees(), overlapped=True
        )
        planned = simulate_plan(plan, topo=topo, router=router).total_time
        handwritten = simulate_on_physical(
            schedule, topo, router=router
        ).total_time
        assert planned == handwritten

    def test_ring_on_dgx1(self):
        topo = dgx1_topology()
        plan = build_ring_plan(8, N, order=list(DGX1_RING_ORDER))
        schedule = ring_allreduce(8, N, order=list(DGX1_RING_ORDER))
        planned = simulate_plan(plan, topo=topo).total_time
        handwritten = simulate_on_physical(schedule, topo).total_time
        assert planned == handwritten


class TestRankCount:
    """Neither simulator runs ranks the fabric or topology lacks."""

    def test_fabric_smaller_than_the_ring(self):
        fabric = FabricSpec(nnodes=4, alpha=2e-6, beta=1 / 25e9)
        with pytest.raises(EmbeddingError, match="8-rank plan"):
            simulate_plan(build_plan("ring", 8, 1e6), fabric=fabric)
        with pytest.raises(EmbeddingError, match="8-rank schedule"):
            simulate_on_fabric(ring_allreduce(8, 1e6), fabric)

    def test_topology_smaller_than_the_ring(self):
        with pytest.raises(EmbeddingError, match="16-rank plan"):
            simulate_plan(build_plan("ring", 16, 1e6), topo=dgx1_topology())
        # The emitter path refuses the same ring.
        with pytest.raises(EmbeddingError):
            simulate_on_physical(ring_allreduce(16, 1e6), dgx1_topology())

    def test_fabric_larger_than_the_plan_runs(self):
        fabric = FabricSpec(nnodes=16, alpha=2e-6, beta=1 / 25e9, lanes=2)
        plan = build_ring_plan(8, N, order=list(DGX1_RING_ORDER))
        assert simulate_plan(plan, fabric=fabric).total_time == (
            simulate_plan(plan, fabric=FABRIC).total_time
        )


class TestLoweringStructure:
    def test_transfer_count_matches_wire_pairs(self):
        from repro.plan import match_wires

        plan = build_tree_plan(8, N, nchunks=4)
        dag = lower_to_dag(plan)
        pairing = match_wires(plan)
        npairs = sum(
            len(s) for s, _ in pairing.wires.values()
        )
        transfers = [op for op in dag.ops if op.nbytes > 0]
        assert len(transfers) == npairs

    def test_each_op_gets_its_deps_written_once(self, op_rows, monkeypatch):
        rewrites = []
        set_deps = Dag.set_deps

        def counting_set_deps(dag, deps):
            rewrites.append(len(deps))
            set_deps(dag, deps)

        monkeypatch.setattr(Dag, "set_deps", counting_set_deps)
        plan = build_double_tree_plan(8, N, nchunks=4, overlapped=True)
        dag = lower_to_dag(plan)
        assert op_rows == []
        assert len(rewrites) == 1  # one CSR rebuild for every plan op
        for op in dag:
            assert list(op.deps) == sorted(set(op.deps))

    def test_simulate_plan_needs_exactly_one_target(self):
        plan = build_ring_plan(4, 1024.0)
        with pytest.raises(PlanError):
            simulate_plan(plan)
        with pytest.raises(PlanError):
            simulate_plan(plan, topo=dgx1_topology(), fabric=FABRIC)
