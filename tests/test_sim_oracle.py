"""Sim-side ordering oracle: the runtime's happens-before model asserted
on DES traces (FIFO per wire, reduce-before-broadcast per chunk)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.collectives.ring import DGX1_RING_ORDER
from repro.errors import SimulationError
from repro.plan import build_plan, simulate_plan
from repro.plan.ir import SEND
from repro.sim.oracle import OrderingReport, check_plan_ordering
from repro.topology.dgx1 import (
    DETOUR_NODES,
    NVLINK_ALPHA,
    NVLINK_BANDWIDTH,
    dgx1_topology,
)
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router
from repro.topology.switch import FabricSpec


def _fabric() -> FabricSpec:
    return FabricSpec(
        nnodes=8,
        alpha=NVLINK_ALPHA,
        beta=1.0 / NVLINK_BANDWIDTH,
        lanes=2,
        name="oracle-test",
    )


def _fabric_outcome(algorithm: str, **kwargs):
    plan = build_plan(algorithm, 8, 1e6, **kwargs)
    return simulate_plan(plan, fabric=_fabric())


FABRIC_CASES = [
    ("ring", {"order": list(DGX1_RING_ORDER)}),
    ("tree", {"nchunks": 4, "overlapped": True}),
    ("double_tree", {"nchunks": 4, "overlapped": True}),
    ("halving_doubling", {}),
]


class TestOracleAcceptsShippedPlans:
    @pytest.mark.parametrize(
        "algorithm,kwargs", FABRIC_CASES, ids=[c[0] for c in FABRIC_CASES]
    )
    def test_fabric_plan_is_ordered(self, algorithm, kwargs):
        out = _fabric_outcome(algorithm, **kwargs)
        report = check_plan_ordering(out.plan, out.dag, out.sim)
        assert report.ok, report.describe()
        assert report.transfers > 0
        assert report.wires > 0
        assert report.chunks > 0

    def test_physical_double_tree_is_ordered(self):
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        plan = build_plan(
            "double_tree", 8, 1e6, nchunks=4, trees=dgx1_trees(),
            overlapped=True,
        )
        out = simulate_plan(plan, topo=topo, router=router)
        report = check_plan_ordering(out.plan, out.dag, out.sim)
        assert report.ok, report.describe()

    def test_ext_plans_rows_all_ordered(self):
        from repro.experiments import ext_plans

        rows = ext_plans.run(nbytes=1e6, nchunks=4)
        assert rows
        assert all(r.ordered for r in rows)
        table = ext_plans.format_table(rows)
        assert "ordered" in table


class TestOracleDetectsViolations:
    def test_dependence_violation_flagged(self):
        out = _fabric_outcome("tree", nchunks=4, overlapped=True)
        sim = dataclasses.replace(out.sim, start=list(out.sim.start))
        victim = next(op for op in out.dag.ops if op.deps)
        sim.start[victim.op_id] = -1.0
        report = check_plan_ordering(out.plan, out.dag, sim)
        assert not report.ok
        assert any("before dep" in e for e in report.errors)

    def test_fifo_violation_flagged(self):
        out = _fabric_outcome("tree", nchunks=4, overlapped=True)
        sends = [op for op in out.plan.ops if op.kind == SEND]
        transfers = [op for op in out.dag.ops if op.nbytes > 0]
        by_wire: dict[tuple, list[int]] = {}
        for send, des in zip(sends, transfers):
            by_wire.setdefault(send.wire_key(), []).append(des.op_id)
        wire = next(ids for ids in by_wire.values() if len(ids) >= 2)
        sim = dataclasses.replace(out.sim, start=list(out.sim.start))
        # Make the later frame start before the earlier one.
        sim.start[wire[1]] = sim.start[wire[0]] - 1.0
        report = check_plan_ordering(out.plan, out.dag, sim)
        assert not report.ok
        assert any("wire" in e for e in report.errors)

    def test_reduce_before_broadcast_violation_flagged(self):
        out = _fabric_outcome("tree", nchunks=4, overlapped=True)
        sends = [op for op in out.plan.ops if op.kind == SEND]
        transfers = [op for op in out.dag.ops if op.nbytes > 0]
        from repro.plan.verifier import BROADCAST_LIKE

        victim = next(
            des
            for send, des in zip(sends, transfers)
            if send.phase in BROADCAST_LIKE
        )
        sim = dataclasses.replace(out.sim, start=list(out.sim.start))
        sim.start[victim.op_id] = -1.0
        report = check_plan_ordering(out.plan, out.dag, sim)
        assert not report.ok
        assert any("broadcast" in e for e in report.errors)

    def test_mismatched_plan_and_dag_rejected(self):
        tree = _fabric_outcome("tree", nchunks=4, overlapped=True)
        ring = _fabric_outcome("ring", order=list(DGX1_RING_ORDER))
        with pytest.raises(SimulationError, match="mismatch"):
            check_plan_ordering(ring.plan, tree.dag, tree.sim)

    def test_report_describe_mentions_errors(self):
        report = OrderingReport(errors=["bad thing"])
        assert not report.ok
        assert "bad thing" in report.describe()

    def test_clean_report_describes_ok(self):
        report = OrderingReport(transfers=3, wires=2, chunks=1)
        assert report.ok
        assert "ok" in report.describe()
