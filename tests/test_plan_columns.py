"""The plan IR's column store: no layer of the plan path builds a
:class:`~repro.plan.ir.PlanOp` per op, and a compiled plan stays small.

The K = 64 DGX-1 C-Cube double tree (3,968 compiled ops) goes through
every step — build, compile, verify, lower, interpreter construction
and one run — while the ``plan_rows`` fixture counts the rows built.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.plan import (
    SEND,
    Plan,
    PlanInterpreter,
    build_double_tree_plan,
    compile_plan,
    lower_to_dag,
    verify_plan,
)
from repro.plan.ir import Label, stamp_origin
from repro.topology.dgx1 import DETOUR_NODES
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router

K = 64
ELEMS = 2 * K * 8
#: Upper bound on what a compiled plan keeps per op.
MAX_BYTES_PER_OP = 64


def build():
    return build_double_tree_plan(
        8, 8.0 * ELEMS, nchunks=K, trees=dgx1_trees(), overlapped=True
    )


def compile_(plan, topo):
    return compile_plan(
        plan, topo, router=Router(topo, detour_preference=DETOUR_NODES)
    )


def test_plan_path_builds_no_rows(plan_rows, dgx1):
    steps = {}
    raw = build()
    steps["build"] = len(plan_rows)
    compiled, _ = compile_(raw, dgx1)
    steps["compile"] = len(plan_rows)
    report = verify_plan(compiled, topo=dgx1)
    steps["verify"] = len(plan_rows)
    lower_to_dag(compiled, pairing=report.pairing)
    steps["lower"] = len(plan_rows)
    interp = PlanInterpreter(compiled, total_elems=ELEMS, report=report)
    steps["interpreter"] = len(plan_rows)
    inputs = [np.full(ELEMS, float(g + 1)) for g in range(8)]
    result = interp.run(inputs)
    steps["run"] = len(plan_rows)

    assert steps == dict.fromkeys(steps, 0)
    assert len(compiled.ops) == 3968
    for out in result.outputs:
        assert np.array_equal(out, np.full(ELEMS, 36.0))


@pytest.mark.no_sanitize  # measures memory
def test_compiled_plan_bytes_per_op(dgx1):
    raw = build()
    compile_(raw, dgx1)  # warm every cache the passes fill once
    gc.collect()
    tracemalloc.start()
    try:
        compiled, reports = compile_(raw, dgx1)
        del reports
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept / len(compiled.ops) <= MAX_BYTES_PER_OP


class TestRows:
    def test_rows_read_the_columns(self, dgx1):
        compiled, _ = compile_(build(), dgx1)
        relays = [
            op for op in compiled.ops
            if op.origin == "pass:legalize_routes"
        ]
        assert relays and all(op.tb[0] == "relay" for op in relays)
        op = relays[0]
        assert op.label.startswith("relay-recv ")
        assert compiled.name_of(op.op_id) == op.name()
        assert compiled.chunks_of(op.op_id) == op.chunks_carried()
        assert compiled.wire_of(op.op_id) == op.wire_key()

    def test_templated_labels_survive_a_detour(self, dgx1):
        raw = build()
        compiled, _ = compile_(raw, dgx1)
        by_label = {op.label for op in raw.ops}
        detoured = [op for op in compiled.ops if op.flow is not None]
        assert detoured
        for op in detoured:
            label = op.label.removeprefix("relay-recv ")
            assert label.removeprefix("relay-send ") in by_label

    def test_appended_rows_round_trip(self):
        plan = build_double_tree_plan(4, 4096.0, nchunks=2)
        copy = plan.derive()
        for i in range(len(plan)):
            copy.add_from(plan, i, plan.deps_of(i))
        assert copy == plan
        assert list(copy.ops) == list(plan.ops)
        assert copy.ops[-1] == plan.ops[len(plan) - 1]

    def test_stamp_origin_sets_the_default(self):
        plan = Plan("t", 2, 8.0, (8.0,), (0.0,))
        plan.add(rank=0, kind=SEND, chunk=0, peer=1, nbytes=8.0,
                 label=Label.UP)
        plan.add(rank=1, kind="reduce", chunk=0, peer=0, nbytes=8.0,
                 origin="pass:x")
        stamp_origin(plan, "builder:t")
        assert [op.origin for op in plan.ops] == ["builder:t", "pass:x"]
        assert plan.origins == {1: "pass:x"}
        assert plan.ops[0].label == "up c0 0->1 t0"
