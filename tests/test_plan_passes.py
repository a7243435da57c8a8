"""Compilation passes: per-edge route legalization by cost model, lane
assignment with conflict detection, and chunk pipelining."""

import pytest

from repro.plan import (
    SEND,
    assign_lanes,
    build_double_tree_plan,
    build_tree_plan,
    compile_plan,
    legalize_routes,
    pipeline_chunks,
    verify_plan,
)
from repro.topology.dgx1 import DETOUR_NODES, PCIE_BANDWIDTH, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router

N = 4096.0


@pytest.fixture
def router(dgx1):
    return Router(dgx1, detour_preference=DETOUR_NODES)


def dgx1_plan(nchunks=2):
    return build_double_tree_plan(
        8, N, nchunks=nchunks, trees=dgx1_trees(), overlapped=True
    )


class TestLegalizeRoutes:
    def test_direct_edges_untouched(self, dgx1, router):
        plan = dgx1_plan()
        legal, report = legalize_routes(plan, dgx1, router=router)
        direct = [c for c in report.choices.values() if c.choice == "direct"]
        assert direct
        assert all(len(c.path) == 2 for c in direct)

    def test_detour_chosen_over_pcie_for_small_chunks(self, dgx1, router):
        # At N/4 = 1 KiB per chunk, two NVLink alphas (4 us) beat one
        # PCIe alpha (15 us) — the cost model must pick the detour.
        plan = dgx1_plan()
        legal, report = legalize_routes(plan, dgx1, router=router)
        det = report.choices[(2, 4)]
        assert det.choice == "detour"
        assert det.path == (2, 0, 4)
        assert det.detour_cost < det.pcie_cost
        # Lane assignment is the next pass; until then verify structure
        # and dataflow only.
        assert verify_plan(legal).ok

    def test_pcie_chosen_when_detour_costs_more(self):
        # Force the comparison the other way through the topology: with
        # NVLink bricks at a quarter of PCIe bandwidth, a two-hop detour
        # of a large chunk loses to one PCIe transfer.
        slow = dgx1_topology(nvlink_bandwidth=PCIE_BANDWIDTH / 4)
        big = build_double_tree_plan(
            8, 64e6, nchunks=2, trees=dgx1_trees(), overlapped=True
        )
        legal_big, report_big = legalize_routes(
            big, slow, router=Router(slow, detour_preference=DETOUR_NODES)
        )
        choice = report_big.choices[(2, 4)]
        assert choice.choice == "pcie"
        assert choice.detour_cost > choice.pcie_cost
        pcie_sends = [
            op for op in legal_big.ops
            if op.kind == SEND and op.medium == "pcie"
        ]
        assert pcie_sends
        assert verify_plan(legal_big).ok

    def test_relay_ops_marked(self, dgx1, router):
        plan = dgx1_plan()
        legal, _ = legalize_routes(plan, dgx1, router=router)
        relays = [op for op in legal.ops if legal.is_relay(op.op_id)]
        assert relays
        # Every relay leg carries the original flow endpoints.
        for op in relays:
            assert op.flow in {(2, 4), (4, 2)}

    def test_legalized_flag_set(self, dgx1, router):
        plan = dgx1_plan()
        assert not plan.legalized
        legal, _ = legalize_routes(plan, dgx1, router=router)
        assert legal.legalized


class TestAssignLanes:
    def test_trees_spread_over_lanes(self, dgx1, router):
        plan = dgx1_plan()
        legal, _ = legalize_routes(plan, dgx1, router=router)
        laned, report = assign_lanes(legal, dgx1)
        assert not report.conflicts
        # Duplicated NVLink edges carry the two trees on distinct lanes.
        lanes_used = {
            (op.src, op.dst, op.lane)
            for op in laned.ops
            if op.kind == SEND and op.medium == "nvlink"
        }
        assert any(lane == 1 for _, _, lane in lanes_used)
        assert verify_plan(laned, topo=dgx1).ok

    def test_conflict_reported_on_single_lane_edge(self, dgx1):
        # Two trees sharing one physical lane on the same edge is
        # reported (the abstract two_trees pair collides on dgx1).
        from repro.topology.logical import two_trees

        plan = build_double_tree_plan(
            8, N, nchunks=2, trees=two_trees(8), overlapped=True
        )
        router = Router(dgx1, detour_preference=DETOUR_NODES)
        legal, _ = legalize_routes(plan, dgx1, router=router)
        _, report = assign_lanes(legal, dgx1)
        # The balanced pair shares several logical edges between trees;
        # edges with one lane cannot separate them.
        assert isinstance(report.conflicts, list)


class TestPipelineChunks:
    def test_splits_chunks(self):
        plan = build_tree_plan(8, N, nchunks=2)
        piped = pipeline_chunks(plan, 2)
        assert piped.nchunks == plan.nchunks * 2
        assert sum(piped.chunk_sizes) == pytest.approx(N)
        assert verify_plan(piped).ok

    def test_factor_one_is_identity(self):
        plan = build_tree_plan(8, N, nchunks=2)
        assert pipeline_chunks(plan, 1) is plan

    def test_composes_with_compile(self, dgx1, router):
        plan = dgx1_plan()
        compiled, reports = compile_plan(
            plan, dgx1, router=router, pipeline=2
        )
        assert compiled.nchunks == plan.nchunks * 2
        assert compiled.legalized
        assert verify_plan(compiled, topo=dgx1).ok
        assert reports.notes
