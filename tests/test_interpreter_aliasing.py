"""Zero-copy interpreter wires, decided by a static write-after-read
proof (``PLAN012``): a wire aliases the sender's gradient buffer unless
some SEND on it has its source chunk rewritten before the final
consumer reads it, and only those wires stage."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.analyze import analyze_plan
from repro.errors import AbortedError, LinkFaultError
from repro.plan import PlanInterpreter, compile_plan
from repro.plan.builders import build_plan
from repro.plan.interpreter import plan_reduce_order
from repro.plan.ir import REDUCE, SEND, Plan
from repro.plan.verifier import prove_send_aliasing, verify_plan
from repro.sim.dag import Phase
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router

ELEMS = 96


def rewrite_plan() -> Plan:
    """Two ranks swap chunk 0 on two wires and each reduces the other's
    partial.  Each rank's reduce rewrites its chunk while the peer's
    reduce of that chunk is still unordered with it, so both SENDs'
    sources change in flight: correct only when the wires stage."""
    plan = Plan(
        algorithm="rewrite",
        nnodes=2,
        nbytes=8.0 * ELEMS,
        chunk_sizes=(8.0 * ELEMS,),
        chunk_offsets=(0.0,),
    )
    common = dict(chunk=0, nbytes=8.0 * ELEMS, phase=Phase.REDUCE)
    plan.add(rank=0, kind=SEND, peer=1, tree=0, tb=0, **common)
    plan.add(rank=1, kind=SEND, peer=0, tree=1, tb=0, **common)
    plan.add(rank=0, kind=REDUCE, peer=1, tree=1, tb=0, **common)
    plan.add(rank=1, kind=REDUCE, peer=0, tree=0, tb=1, deps=(1,), **common)
    return plan


def compiled_dgx1_double_tree(nbytes: float) -> Plan:
    topo = dgx1_topology()
    plan = build_plan(
        "double_tree", 8, nbytes, nchunks=4, overlapped=True,
        trees=dgx1_trees(),
    )
    legal, _ = compile_plan(
        plan, topo, router=Router(topo, detour_preference=DETOUR_NODES)
    )
    return legal


BUILTINS = [
    ("ring", {}),
    ("ring", {"nrings": 2}),
    ("tree", {"nchunks": 3}),
    ("tree", {"nchunks": 3, "overlapped": True}),
    ("double_tree", {"nchunks": 3}),
    ("double_tree", {"nchunks": 3, "overlapped": True}),
    ("halving_doubling", {}),
]


def _plans():
    for algorithm, kwargs in BUILTINS:
        yield f"{algorithm}{kwargs or ''}", build_plan(
            algorithm, 8, 8.0 * ELEMS, **kwargs
        )
    yield "rewrite", rewrite_plan()
    yield "dgx1-compiled", compiled_dgx1_double_tree(8.0 * ELEMS)


PLANS = dict(_plans())


def _inputs(nnodes: int, rng) -> list[np.ndarray]:
    return [rng.normal(size=ELEMS) for _ in range(nnodes)]


class TestWriteAfterReadProof:
    def test_rewrite_plan_verifies_but_gets_plan012(self):
        plan = rewrite_plan()
        verify_plan(plan)  # a legal, race-free plan
        analysis = analyze_plan(plan)
        assert analysis.ok  # PLAN012 is a note, never an error
        notes = [d for d in analysis.report.diagnostics if d.code == "PLAN012"]
        assert sorted(d.op_id for d in notes) == [0, 1]
        assert all(d.severity == "note" for d in notes)
        assert "op 2" in notes[0].message and "op 3" in notes[0].message

    def test_repro_analyze_reports_plan012_as_a_note(self, capsys, tmp_path):
        import json

        from repro.cli import main

        file = tmp_path / "rewrite.json"
        file.write_text(rewrite_plan().to_json())
        assert main(["analyze", str(file)]) == 0
        assert "PLAN012 (send-source-rewritten)" in capsys.readouterr().out
        assert main(["analyze", str(file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [(d["code"], d["severity"], d["op_id"])
                for d in payload["diagnostics"]] == [
            ("PLAN012", "note", 0), ("PLAN012", "note", 1)
        ]

    def test_gate_does_not_run_the_proof(self, monkeypatch):
        import repro.plan.verifier as verifier

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_plan ran the aliasing proof")

        monkeypatch.setattr(verifier, "prove_send_aliasing", forbidden)
        assert verify_plan(rewrite_plan()).ok

    def test_given_report_builds_no_graph(self, monkeypatch):
        """The proof and the interpreter read the graph a verification
        report holds; neither pairs wires or walks the graph again."""
        import repro.plan.interpreter as interpreter_mod
        import repro.plan.verifier as verifier

        plan = compiled_dgx1_double_tree(8.0 * ELEMS)
        report = verify_plan(plan)

        def forbidden(*args, **kwargs):
            raise AssertionError("rebuilt the happens-before graph")

        for name in ("match_wires", "_combined_edges", "_topo_order",
                     "_ancestors"):
            monkeypatch.setattr(verifier, name, forbidden)
        monkeypatch.setattr(interpreter_mod, "match_wires", forbidden)
        assert prove_send_aliasing(plan, report).staged_sends == frozenset()
        PlanInterpreter(plan, total_elems=ELEMS, report=report)

    def test_relay_legs_stage_with_a_rejected_source(self):
        # The rewrite plan with rank 0's send detoured via rank 2 (rank 2
        # itself contributes nothing, so only the proof is checked).
        base = rewrite_plan()
        plan = Plan(
            algorithm="rewrite-relayed", nnodes=3, nbytes=base.nbytes,
            chunk_sizes=base.chunk_sizes, chunk_offsets=base.chunk_offsets,
        )
        common = dict(chunk=0, nbytes=base.nbytes, phase=Phase.REDUCE)
        flow = dict(flow=(0, 1), tree=0, **common)
        plan.add(rank=0, kind=SEND, peer=2, tb=0, **flow)
        plan.add(rank=2, kind="recv", peer=0, tb=0, **flow)
        plan.add(rank=2, kind=SEND, peer=1, tb=0, **flow)
        plan.add(rank=1, kind=SEND, peer=0, tree=1, tb=0, **common)
        plan.add(rank=0, kind=REDUCE, peer=1, tree=1, tb=0, **common)
        plan.add(rank=1, kind=REDUCE, peer=2, tb=1, deps=(3,), **flow)
        proof = prove_send_aliasing(
            plan, verify_plan(plan, raise_on_error=False)
        )
        named = {d.op_id for d in proof.diagnostics}
        assert 0 in named and 2 not in named  # the relay leg is not a source
        assert {0, 2} <= proof.staged_sends


class TestStagedBytes:
    @pytest.mark.parametrize("name", list(PLANS))
    def test_staged_bytes_are_the_rejected_wires_spans(self, name, rng):
        plan = PLANS[name]
        rejected = {
            d.op_id for d in analyze_plan(plan).report.diagnostics
            if d.code == "PLAN012"
        }
        interp = PlanInterpreter(plan, total_elems=ELEMS)
        staged_wires: dict[tuple, set[int]] = {}
        wires = verify_plan(plan, raise_on_error=False).pairing.wires
        for key, (send_ids, _) in wires.items():
            if rejected.intersection(send_ids):
                staged_wires[key] = {
                    c for s in send_ids for c in plan.chunks_of(s)
                }
        expected = 8 * sum(
            interp.layout.chunk_elems(c)
            for chunks in staged_wires.values() for c in chunks
        )
        inputs = _inputs(plan.nnodes, rng)
        report = interp.run(inputs)
        assert report.staged_bytes == expected
        assert (expected > 0) == (name == "rewrite")
        reference = plan_reduce_order(plan, total_elems=ELEMS)(inputs)
        for out in report.outputs:
            assert np.array_equal(out, reference)

    def test_rewrite_plan_stages_both_wires(self, rng):
        report = PlanInterpreter(rewrite_plan(), total_elems=ELEMS).run(
            _inputs(2, rng)
        )
        assert report.staged_bytes == 2 * 8 * ELEMS

    @pytest.mark.no_sanitize  # measures memory
    def test_compiled_dgx1_double_tree_at_vgg_size_stages_nothing(self):
        elems = 553_425
        plan = compiled_dgx1_double_tree(8.0 * elems)
        interp = PlanInterpreter(plan, total_elems=elems)
        inputs = [np.full(elems, float(g + 1)) for g in range(plan.nnodes)]
        input_copies = 8 * elems * plan.nnodes
        tracemalloc.start()
        try:
            report = interp.run(inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.staged_bytes == 0
        assert peak <= 1.1 * input_copies
        total = float(sum(range(1, plan.nnodes + 1)))
        for out in report.outputs:
            assert np.array_equal(out, np.full(elems, total))


@pytest.mark.no_sanitize  # seeds a race on purpose
@pytest.mark.no_fuzz  # drives its own tracer
def test_forcing_the_rejected_plan_to_alias_is_a_race(rng):
    from repro.sanitizer.tracer import tracing

    interp = PlanInterpreter(rewrite_plan(), total_elems=ELEMS)
    interp.program = replace(
        interp.program, aliased=frozenset(range(len(interp.program.wires)))
    )
    with tracing() as traced:
        try:
            interp.run(_inputs(2, rng))
        except AbortedError as exc:
            # Whether the rewrite lands before a receiver's CRC check is
            # up to the schedule; when it does, the CRC catches it.
            assert isinstance(exc.__cause__, LinkFaultError)
    races = traced.report.races
    assert races
    assert {race.buffer for race in races} <= {"gpu0", "gpu1"}
    assert all(race.chunk == 0 for race in races)
    assert any(
        {race.first.kind, race.second.kind} == {"read", "reduce"}
        for race in races
    )
