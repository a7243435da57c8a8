"""The static plan analyzer: diagnostics model, the verifier's ordering
verdicts, contention lower bound, CLI, and the autotuner's pruning
gate."""

from __future__ import annotations

import json

import pytest

from repro.analyze import (
    Diagnostic,
    RULES,
    analyze_plan,
    rule_slug,
    severity_of,
    static_lower_bound,
    to_sarif,
)
from repro.analyze.contention import analyze_contention
from repro.analyze.diagnostics import DiagnosticReport
from repro.cli import main
from repro.fuzz.mutate import candidate_mutations, mutate_plan
from repro.plan import (
    build_double_tree_plan,
    build_plan,
    build_ring_plan,
    compile_plan,
    verify_plan,
)
from repro.plan.ir import Plan
from repro.plan.lowering import simulate_plan
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx2 import dgx2_topology
from repro.topology.routing import Router

ALGORITHMS = ("ring", "tree", "double_tree", "halving_doubling")


def _build(algorithm, nnodes, nbytes=4e6):
    kwargs = (
        {"nchunks": 2} if algorithm in ("tree", "double_tree") else {}
    )
    return build_plan(algorithm, nnodes, nbytes, **kwargs)


def _compiled(algorithm, topo, nbytes=4e6):
    router = Router(topo, detour_preference=DETOUR_NODES)
    plan = _build(algorithm, topo.nnodes, nbytes)
    compiled, _ = compile_plan(plan, topo, router=router)
    return compiled


class TestDiagnosticModel:
    def test_registry_covers_plan_and_sync_rules(self):
        for code in ("PLAN001", "PLAN002", "PLAN003", "PLAN004",
                     "PLAN005", "PLAN006", "PLAN011",
                     "SYNC001", "SYNC002", "SYNC003", "SYNC004"):
            assert code in RULES
            assert severity_of(code) == "error"
        assert severity_of("PLAN020") == "warning"
        assert severity_of("PLAN021") == "note"
        # Unknown codes fail closed.
        assert severity_of("PLAN999") == "error"

    def test_str_formats(self):
        d = Diagnostic(code="SYNC001", message="boom", severity="error",
                       path="src/x.py", line=3)
        assert str(d) == f"src/x.py:3: SYNC001 ({rule_slug('SYNC001')}): boom"
        d2 = Diagnostic(code="PLAN011", message="late", severity="error",
                        origin="builder:ring")
        assert "PLAN011" in str(d2) and "[from builder:ring]" in str(d2)
        assert d2.rule == "PLAN011"

    def test_report_ok_ignores_advisories(self):
        report = DiagnosticReport(tool="t", subject="s")
        report.extend([Diagnostic(code="PLAN020", message="w",
                                  severity="warning")])
        assert report.ok and report.warnings
        report.extend([Diagnostic(code="PLAN011", message="e",
                                  severity="error")])
        assert not report.ok

    def test_sarif_shape(self):
        diags = [
            Diagnostic(code="SYNC001", message="m1", severity="error",
                       path="src/a.py", line=7),
            Diagnostic(code="PLAN020", message="m2", severity="warning",
                       op_id=4, op_name="op 4", origin="builder:ring"),
        ]
        sarif = to_sarif(diags, tool="t")
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "t"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(set(rule_ids))
        results = run["results"]
        assert [r["level"] for r in results] == ["error", "warning"]
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/a.py"
        assert loc["region"]["startLine"] == 7
        assert results[1]["properties"]["origin"] == "builder:ring"
        # Serializable as-is.
        json.dumps(sarif)


class TestOrderingProver:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_builders_prove_clean_logical(self, algorithm):
        plan = _build(algorithm, 8)
        report = verify_plan(plan, raise_on_error=False)
        assert report.ok, report.errors
        assert report.pairing.partner and report.pairing.wires
        assert len(report.order) == len(report.reach) == len(plan.ops)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("degraded", [False, True])
    def test_builders_prove_clean_compiled(self, algorithm, degraded):
        topo = dgx1_topology()
        if degraded:
            topo = topo.without_link(3, 7)
        assert verify_plan(_compiled(algorithm, topo), topo=topo).ok

    def test_agrees_with_des_oracle_on_builders(self):
        from repro.sim.oracle import check_plan_ordering

        topo = dgx1_topology()
        for algorithm in ALGORITHMS:
            plan = _compiled(algorithm, topo)
            outcome = simulate_plan(plan, topo=topo)
            des_ok = check_plan_ordering(
                outcome.plan, outcome.dag, outcome.sim
            ).ok
            assert verify_plan(
                plan, topo=topo, raise_on_error=False
            ).ok == des_ok

    def test_every_killed_mutant_is_flagged(self):
        """Whatever the verifier rejects, `analyze` rejects with a
        PLAN0xx code — the acceptance bar for the mutation corpus."""
        plan = build_ring_plan(4, 4096.0)
        flagged = 0
        for mutation in candidate_mutations(plan):
            mutant = mutate_plan(plan, mutation)
            if verify_plan(mutant, raise_on_error=False).ok:
                continue
            report = analyze_plan(mutant)
            assert not report.ok, mutation
            assert all(
                d.code.startswith("PLAN")
                for d in report.report.diagnostics
            )
            flagged += 1
        assert flagged > 0

    def test_swapped_wire_order_breaks_fifo(self):
        """Same-wire swaps are what FIFO per wire (PLAN002) and
        PLAN011 guard: the DES oracle must accept every mutant the
        verifier accepts."""
        from repro.sim.oracle import check_plan_ordering

        from repro.topology.switch import FabricSpec
        from repro.topology.dgx1 import NVLINK_ALPHA, NVLINK_BANDWIDTH

        fabric = FabricSpec(
            nnodes=4, alpha=NVLINK_ALPHA, beta=1.0 / NVLINK_BANDWIDTH,
            lanes=2, name="analyze-test",
        )
        plan = build_double_tree_plan(4, 4096.0, nchunks=2,
                                      overlapped=True)
        compared = 0
        for mutation in candidate_mutations(plan):
            mutant = mutate_plan(plan, mutation)
            if not verify_plan(mutant, raise_on_error=False).ok:
                continue
            try:
                outcome = simulate_plan(mutant, fabric=fabric)
            except Exception:
                continue
            assert check_plan_ordering(
                outcome.plan, outcome.dag, outcome.sim
            ).ok, mutation
            compared += 1
        assert compared > 0


class TestContention:
    @pytest.mark.parametrize("topo_fn", [dgx1_topology, dgx2_topology],
                             ids=["dgx1", "dgx2"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_lower_bound_is_sound(self, topo_fn, algorithm):
        topo = topo_fn()
        plan = _compiled(algorithm, topo)
        outcome = simulate_plan(plan, topo=topo)
        lb = static_lower_bound(plan, topo)
        assert 0.0 < lb <= outcome.total_time * (1 + 1e-9)

    def test_naive_tree_pair_contends_tuned_pair_does_not(self):
        """The paper's Observation: the logical Sanders pair mapped
        naively onto DGX-1 serializes on shared lanes; the hand-tuned
        pair is lane-disjoint.  PLAN020 sees it without simulating."""
        from repro.topology.dgx1_trees import dgx1_trees

        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        naive = build_double_tree_plan(8, 4e6, nchunks=2, overlapped=True)
        naive_rep = analyze_contention(naive, topo, router=router)
        assert naive_rep.shared_lanes
        assert any(d.code == "PLAN020" for d in naive_rep.diagnostics)

        tuned = build_double_tree_plan(
            8, 4e6, nchunks=2, trees=dgx1_trees(), overlapped=True
        )
        tuned_rep = analyze_contention(tuned, topo, router=router)
        assert tuned_rep.shared_lanes == {}
        assert tuned_rep.diagnostics == []

    def test_deadlocked_plan_has_no_bound(self):
        from repro.errors import PlanError

        topo = dgx1_topology()
        plan = _compiled("ring", topo, nbytes=4096.0)
        # Two transfers on independent chunk chains, each told to wait
        # for the other: a true dependence cycle (the plan is already
        # legalized, so the bound lowers it directly).
        from repro.plan.ir import SEND

        a, b = [op.op_id for op in plan.ops if op.kind == SEND][:2]
        cyclic = plan.derive()
        for i in range(len(plan)):
            extra = (b,) if i == a else (a,) if i == b else ()
            cyclic.add_from(plan, i, plan.deps_of(i) + extra)
        plan = cyclic
        from repro.errors import ScheduleError

        with pytest.raises((PlanError, ScheduleError), match="cycle"):
            static_lower_bound(plan, topo)

    def test_advisories_never_fail_analysis(self):
        topo = dgx1_topology()
        naive = build_double_tree_plan(8, 4e6, nchunks=2, overlapped=True)
        compiled, _ = compile_plan(naive, topo, router=Router(topo))
        report = analyze_plan(compiled, topo=topo)
        assert report.ok  # PLAN020 is a warning, not an error
        assert any(d.code == "PLAN020"
                   for d in report.report.diagnostics)


class TestProvenance:
    def test_builders_stamp_origin(self):
        for algorithm in ALGORITHMS:
            plan = _build(algorithm, 8)
            assert plan.ops
            assert all(
                op.origin == f"builder:{plan.algorithm}"
                for op in plan.ops
            )

    def test_compile_preserves_and_tags_origin(self):
        topo = dgx1_topology().without_link(3, 7)
        plan = _compiled("double_tree", topo)
        origins = {op.origin for op in plan.ops}
        assert f"builder:{plan.algorithm}" in origins
        # The degraded link forces relays, introduced by legalization.
        assert "pass:legalize_routes" in origins

    def test_origin_survives_serialization(self):
        plan = build_ring_plan(4, 4096.0)
        clone = Plan.from_json(plan.to_json())
        assert [op.origin for op in clone.ops] == \
            [op.origin for op in plan.ops]

    def test_verifier_errors_carry_origin(self):
        plan = build_ring_plan(4, 4096.0)
        mutant = mutate_plan(plan, candidate_mutations(plan)[0])
        report = verify_plan(mutant, raise_on_error=False)
        assert not report.ok
        assert any("[from builder:ring]" in e for e in report.errors)
        assert any(d.origin == "builder:ring" for d in report.diagnostics)


class TestTunePruning:
    @pytest.mark.parametrize("topo_fn", [
        dgx1_topology,
        lambda: dgx1_topology().without_link(3, 7),
    ], ids=["dgx1", "dgx1-nolink37"])
    def test_prunes_half_without_changing_winners(self, topo_fn):
        from repro.synth.tune import SMOKE_SIZES, tune

        pruned = tune(topo_fn(), sizes=SMOKE_SIZES, seed=0, prune=True)
        full = tune(topo_fn(), sizes=SMOKE_SIZES, seed=0, prune=False)

        assert pruned.pruned >= 0.5 * pruned.candidates, (
            f"only {pruned.pruned}/{pruned.candidates} pruned"
        )
        assert full.pruned == 0
        assert full.simulated == full.candidates
        assert len(pruned.winners) == len(full.winners)
        for a, b in zip(pruned.winners, full.winners):
            assert a.nbytes == b.nbytes
            for wa, wb in (
                (a.best, b.best),
                (a.best_synth, b.best_synth),
                (a.best_builder, b.best_builder),
            ):
                assert (wa is None) == (wb is None)
                if wa is not None:
                    assert (wa.strategy, wa.source, wa.pipeline, wa.time) \
                        == (wb.strategy, wb.source, wb.pipeline, wb.time)
        # Same byte thresholds on either side of the geometric cut.
        cut = (SMOKE_SIZES[0] * SMOKE_SIZES[1]) ** 0.5
        for nbytes in (SMOKE_SIZES[0], cut * 0.99, cut * 1.01,
                       SMOKE_SIZES[1]):
            assert pruned.choose(nbytes).nbytes == \
                full.choose(nbytes).nbytes

    def test_pruned_candidates_never_simulated(self):
        from repro.synth.tune import SMOKE_SIZES, tune

        result = tune(dgx1_topology(), sizes=SMOKE_SIZES, seed=0)
        assert result.simulated + result.pruned == result.candidates
        assert result.simulated < result.candidates


class TestAnalyzeCli:
    def test_all_builders_clean(self, capsys):
        assert main(["analyze", "--all"]) == 0
        out = capsys.readouterr().out
        assert "static plan analysis" in out
        assert "FAIL" not in out

    def test_single_plan_reports_bound(self, capsys):
        assert main(["analyze", "--algorithm", "ring", "--physical"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "proved" in out

    def test_mutant_file_exits_nonzero_with_plan_code(
        self, capsys, tmp_path
    ):
        plan = build_ring_plan(4, 4096.0)
        flagged = 0
        for mutation in candidate_mutations(plan)[:6]:
            mutant = mutate_plan(plan, mutation)
            if verify_plan(mutant, raise_on_error=False).ok:
                continue
            file = tmp_path / "mutant.json"
            file.write_text(mutant.to_json())
            assert main(["analyze", str(file)]) == 1
            assert "PLAN0" in capsys.readouterr().out
            flagged += 1
        assert flagged > 0

    def test_json_output(self, capsys):
        assert main(["analyze", "--algorithm", "tree", "--physical",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["ordering"]["ok"] is True
        assert payload["contention"]["lower_bound"] > 0

    def test_sarif_output(self, capsys, tmp_path):
        out_file = tmp_path / "out.sarif"
        plan = build_ring_plan(4, 4096.0)
        mutant = mutate_plan(plan, candidate_mutations(plan)[0])
        file = tmp_path / "mutant.json"
        file.write_text(mutant.to_json())
        assert main(["analyze", str(file), "--sarif",
                     str(out_file)]) == 1
        sarif = json.loads(out_file.read_text())
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"]

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_tune_no_prune_flag(self, capsys):
        assert main(["synth", "tune", "--topology", "dgx1", "--smoke",
                     "--no-prune"]) == 0
        out = capsys.readouterr().out
        assert "0 pruned by static bound" in out
