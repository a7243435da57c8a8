"""Plan JSON serialization: lossless round trips, strict rejection of
malformed documents, and the `plan export` / `plan verify <file>` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import PlanError
from repro.plan import Plan, build_plan, compile_plan, verify_plan
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router

ALGORITHMS = ("ring", "tree", "double_tree", "halving_doubling")


def _plan(algorithm: str, nnodes: int = 8) -> Plan:
    kwargs = {}
    if algorithm in ("tree", "double_tree"):
        kwargs["nchunks"] = 4
        kwargs["overlapped"] = True
    return build_plan(algorithm, nnodes, 4096.0, **kwargs)


class TestRoundTrip:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_logical_plan_round_trips_exactly(self, algorithm):
        plan = _plan(algorithm)
        clone = Plan.from_json(plan.to_json())
        assert clone == plan

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_tripped_plan_still_verifies(self, algorithm):
        plan = _plan(algorithm)
        clone = Plan.from_json(plan.to_json())
        assert verify_plan(clone, raise_on_error=False).ok

    def test_compiled_physical_plan_round_trips(self):
        # Compiled plans carry tuple thread-block ids, detour relays,
        # legalized flags, and pass notes — all must survive.
        plan = build_plan(
            "double_tree", 8, 4096.0, nchunks=4, overlapped=True,
            trees=dgx1_trees(),
        )
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        compiled, _reports = compile_plan(plan, topo, router=router)
        clone = Plan.from_json(compiled.to_json())
        assert clone == compiled
        assert clone.legalized == compiled.legalized
        assert clone.notes == compiled.notes

    def test_json_document_shape(self):
        data = _plan("ring").to_json_dict()
        assert data["version"] == 1
        assert data["algorithm"] == "ring"
        assert len(data["ops"]) == len(_plan("ring").ops)
        # The document is pure JSON (no tuples or enums leaking through).
        json.loads(json.dumps(data))


class TestRejection:
    def test_wrong_version_rejected(self):
        data = _plan("ring").to_json_dict()
        data["version"] = 99
        with pytest.raises(PlanError, match="version"):
            Plan.from_json_dict(data)

    def test_garbage_text_rejected(self):
        with pytest.raises(PlanError):
            Plan.from_json("not json {")

    def test_non_dense_op_ids_rejected(self):
        data = _plan("ring").to_json_dict()
        data["ops"][0]["op_id"] = 7777
        with pytest.raises(PlanError, match="out of order"):
            Plan.from_json_dict(data)

    def test_unknown_op_kind_rejected(self):
        data = _plan("ring").to_json_dict()
        data["ops"][0]["kind"] = "teleport"
        with pytest.raises(PlanError, match="kind"):
            Plan.from_json_dict(data)

    def test_unknown_phase_rejected(self):
        data = _plan("ring").to_json_dict()
        data["ops"][0]["phase"] = "warp"
        with pytest.raises(PlanError):
            Plan.from_json_dict(data)

    def test_missing_field_rejected(self):
        data = _plan("ring").to_json_dict()
        del data["ops"][0]["rank"]
        with pytest.raises(PlanError):
            Plan.from_json_dict(data)


class TestCli:
    def test_export_then_verify_file(self, tmp_path, capsys):
        out = tmp_path / "ring.json"
        assert cli_main([
            "plan", "export", "--algorithm", "ring", "--nnodes", "4",
            "--out", str(out),
        ]) == 0
        assert cli_main(["plan", "verify", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "verdict: ok" in stdout

    def test_export_to_stdout(self, capsys):
        assert cli_main([
            "plan", "export", "--algorithm", "ring", "--nnodes", "4",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == "ring"

    def test_verify_rejects_tampered_file(self, tmp_path, capsys):
        out = tmp_path / "dt.json"
        assert cli_main([
            "plan", "export", "--algorithm", "double_tree", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        # Drop one reduce op: exactly-once reduction must now fail.
        victim = next(
            i for i, op in enumerate(data["ops"]) if op["kind"] == "reduce"
        )
        del data["ops"][victim]
        for new_id, op in enumerate(data["ops"]):
            op["op_id"] = new_id
        # Keep deps pointing at surviving ids so only the semantic check
        # (not shape validation) can complain.
        for op in data["ops"]:
            op["deps"] = [d for d in op["deps"] if d < len(data["ops"])]
        out.write_text(json.dumps(data))
        assert cli_main(["plan", "verify", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 1}")
        assert cli_main(["plan", "verify", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_interpreter_runs_a_round_tripped_plan(self):
        import numpy as np

        from repro.plan import PlanInterpreter
        from repro.runtime.sync import SpinConfig

        plan = Plan.from_json(_plan("double_tree", nnodes=4).to_json())
        inputs = [np.full(64, float(g)) for g in range(4)]
        report = PlanInterpreter(
            plan, total_elems=64, spin=SpinConfig(timeout=10.0)
        ).run([a.copy() for a in inputs])
        for out in report.outputs:
            np.testing.assert_allclose(out, np.full(64, 6.0))
