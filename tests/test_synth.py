"""Tests for the :mod:`repro.synth` subsystem.

Covers the three layers (search, tune, store) plus the
``search_degraded_pair`` synthesis fallback, the ``repro synth`` CLI,
and the acceptance criteria of the ext_synth experiment:

- on DGX-1 and DGX-2 the tuned synthesized plan is never more than 5%
  slower than the best hand-written builder at any swept message size,
- on a degraded topology (DGX-1 with the doubled 3-7 link cut) it
  strictly beats every hand-written builder,
- every emitted plan passes static verification, the sim-side ordering
  oracle, and bit-exact interpreter execution;
- the gate drops a candidate only on a :class:`~repro.errors.ReproError`:
  any other exception is a bug and propagates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigError, PlanError, SynthesisError
from repro.experiments.ext_synth import ACCEPT_TOLERANCE
from repro.plan.interpreter import PlanInterpreter
from repro.plan.verifier import verify_plan
from repro.sim.oracle import check_plan_ordering
from repro.synth import (
    PlanStore,
    synthesize_candidates,
    synthesize_plan,
    topology_fingerprint,
)
from repro.synth.search import (
    effective_gpu_topology,
    hamiltonian_cycle,
    pack_binary_forest,
)
from repro.synth.tune import SMOKE_SIZES, tune
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx2 import dgx2_topology
from repro.topology.switch import switch_topology
from repro.topology.tree_search import search_degraded_pair


def degraded_dgx1():
    topo = dgx1_topology().without_link(3, 7)
    topo.name = "dgx1-nolink37"
    return topo


class TestSearch:
    def test_forest_packing_spans_and_validates(self):
        trees = pack_binary_forest(dgx1_topology(), ntrees=2, seed=0)
        assert len(trees) == 2
        for tree in trees:
            assert tree.nnodes == 8
            tree.validate()

    def test_hamiltonian_cycle_on_dgx1(self):
        order = hamiltonian_cycle(dgx1_topology(), seed=0)
        assert order is not None
        assert sorted(order) == list(range(8))
        topo = dgx1_topology()
        hops = list(zip(order, order[1:] + order[:1]))
        assert all(topo.has_link(u, v) for u, v in hops)

    def test_effective_topology_collapses_switches(self):
        fabric = switch_topology(8, radix=4)
        eff = effective_gpu_topology(fabric)
        assert not eff.switch_ids
        assert eff.nnodes == 8
        # Every GPU pair got an effective direct channel.
        for u in range(8):
            for v in range(u + 1, 8):
                assert eff.has_link(u, v)

    def test_candidates_are_gated_and_sorted(self):
        cands = synthesize_candidates(dgx1_topology(), 4e6, seed=0)
        assert cands
        times = [c.time for c in cands]
        assert times == sorted(times)
        eff = effective_gpu_topology(dgx1_topology())
        for cand in cands:
            assert verify_plan(
                cand.plan, topo=eff, raise_on_error=False
            ).ok

    def test_hypercube_only_when_it_embeds(self):
        strategies = {
            c.strategy
            for c in synthesize_candidates(dgx1_topology(), 64e3, seed=0)
        }
        assert "hypercube" in strategies
        degraded = {
            c.strategy
            for c in synthesize_candidates(degraded_dgx1(), 64e3, seed=0)
        }
        assert "hypercube" not in degraded

    @pytest.mark.parametrize("error, dropped", [
        (PlanError("cannot legalize"), True),
        (TypeError("bug in a pass"), False),
    ], ids=["plan-error", "type-error"])
    def test_gate_drops_only_repro_errors(self, monkeypatch, error, dropped):
        import repro.synth.search as search
        from repro.plan.builders import build_ring_plan

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(search, "compile_plan", failing)
        raw, topo = build_ring_plan(8, 4096.0), dgx1_topology()
        if dropped:
            assert search.gate_candidate(raw, topo, strategy="ring") is None
        else:
            with pytest.raises(TypeError, match="bug in a pass"):
                search.gate_candidate(raw, topo, strategy="ring")

    def test_synthesize_plan_picks_the_best(self):
        cands = synthesize_candidates(dgx1_topology(), 4e6, seed=0)
        best = synthesize_plan(dgx1_topology(), 4e6, seed=0)
        assert best.time == cands[0].time


class TestAcceptance:
    """The ext_synth acceptance criteria, asserted on smoke sizes."""

    @pytest.mark.parametrize(
        "topo_fn", [dgx1_topology, dgx2_topology], ids=["dgx1", "dgx2"]
    )
    def test_synth_within_tolerance_on_stock_machines(self, topo_fn):
        result = tune(topo_fn(), sizes=SMOKE_SIZES, seed=0)
        for winner in result.winners:
            assert winner.best_builder is not None
            ratio = winner.best_synth.time / winner.best_builder.time
            assert ratio <= ACCEPT_TOLERANCE, (
                f"{winner.nbytes}: synth {ratio:.3f}x of builder"
            )

    def test_synth_strictly_beats_builders_on_degraded(self):
        result = tune(degraded_dgx1(), sizes=SMOKE_SIZES, seed=0)
        for winner in result.winners:
            builders = [
                e for e in winner.entries if e.source == "builder"
            ]
            assert builders
            assert all(
                winner.best_synth.time < e.time for e in builders
            ), f"{winner.nbytes}: synth did not strictly win"

    def test_every_winner_is_fully_gated(self):
        from repro.plan.lowering import simulate_plan

        topo = degraded_dgx1()
        eff = effective_gpu_topology(topo)
        result = tune(topo, sizes=SMOKE_SIZES, seed=0)
        for winner in result.winners:
            plan = winner.best.plan
            assert verify_plan(plan, topo=eff, raise_on_error=False).ok
            outcome = simulate_plan(plan, topo=eff)
            assert check_plan_ordering(
                outcome.plan, outcome.dag, outcome.sim
            ).ok
            rng = np.random.default_rng(11)
            inputs = [
                rng.integers(-50, 50, 256).astype(np.float64)
                for _ in range(plan.nnodes)
            ]
            report = PlanInterpreter(
                plan, total_elems=256
            ).run(inputs)
            expected = np.sum(inputs, axis=0)
            assert all(
                np.array_equal(out, expected) for out in report.outputs
            )

    def test_choose_uses_geometric_thresholds(self):
        result = tune(dgx1_topology(), sizes=(64e3, 4e6), seed=0)
        small, large = result.winners
        assert result.choose(64e3).nbytes == small.nbytes
        assert result.choose(4e6).nbytes == large.nbytes
        cut = (64e3 * 4e6) ** 0.5
        assert result.choose(cut * 0.99).nbytes == small.nbytes
        assert result.choose(cut * 1.01).nbytes == large.nbytes


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        topo = dgx1_topology()
        best = synthesize_plan(topo, 64e3, seed=0)
        store = PlanStore(tmp_path / "store")
        store.put(
            topo, 64e3, best.plan,
            strategy=best.strategy, source="synth", time=best.time,
        )
        hit = store.get(topo, 64e3)
        assert hit is not None
        assert hit.strategy == best.strategy
        assert hit.plan.to_json() == best.plan.to_json()
        assert store.get(topo, 1e6) is None

    def test_fingerprint_is_structural(self):
        a = dgx1_topology()
        b = dgx1_topology()
        b.name = "same-wires-other-name"
        assert topology_fingerprint(a) == topology_fingerprint(b)
        assert topology_fingerprint(a) != topology_fingerprint(
            degraded_dgx1()
        )

    def test_clear_drops_everything(self, tmp_path):
        topo = dgx1_topology()
        best = synthesize_plan(topo, 64e3, seed=0)
        store = PlanStore(tmp_path / "store")
        store.put(
            topo, 64e3, best.plan,
            strategy=best.strategy, source="synth", time=best.time,
        )
        assert store.clear() == 1
        assert store.get(topo, 64e3) is None
        assert store.entries() == []


class TestFallback:
    DEAD_QUAD = [1, 2, 3, 4]

    def test_without_flag_still_raises(self):
        with pytest.raises(ConfigError):
            search_degraded_pair(
                dgx1_topology(), self.DEAD_QUAD,
                detour_preference=DETOUR_NODES, seed=0,
            )

    def test_with_flag_returns_verified_synthesized_plan(self):
        emb = search_degraded_pair(
            dgx1_topology(), self.DEAD_QUAD,
            detour_preference=DETOUR_NODES, synth_fallback=True, seed=0,
        )
        assert emb.synthesized
        assert emb.plan is not None and emb.plan_strategy
        assert emb.survivors == (0, 5, 6, 7)
        assert verify_plan(
            emb.plan, topo=emb.topology, raise_on_error=False
        ).ok

    def test_feasible_survivors_stay_unsynthesized(self):
        emb = search_degraded_pair(
            dgx1_topology(), [3],
            detour_preference=DETOUR_NODES, synth_fallback=True, seed=0,
        )
        assert not emb.synthesized
        assert emb.plan is None

    def test_fallback_plan_executes_bit_exact(self):
        emb = search_degraded_pair(
            dgx1_topology(), self.DEAD_QUAD,
            detour_preference=DETOUR_NODES, synth_fallback=True, seed=0,
        )
        rng = np.random.default_rng(5)
        inputs = [
            rng.integers(-100, 100, 64).astype(np.float64)
            for _ in range(emb.topology.nnodes)
        ]
        report = PlanInterpreter(
            emb.plan, total_elems=64
        ).run(inputs)
        expected = np.sum(inputs, axis=0)
        assert all(
            np.array_equal(out, expected) for out in report.outputs
        )
        assert report.leftover_frames == 0


class TestCli:
    def test_tune_smoke_prints_winner_table(self, capsys):
        assert main([
            "synth", "tune", "--smoke", "--topology", "dgx1",
        ]) == 0
        out = capsys.readouterr().out
        assert "synth/builder" in out
        assert "dgx1" in out

    def test_tune_persists_into_store(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main([
            "synth", "tune", "--smoke", "--topology", "dgx1-nolink37",
            "--store", str(store),
        ]) == 0
        assert "stored" in capsys.readouterr().out
        assert main(["synth", "show", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "dgx1-nolink37" in out
        assert main(["synth", "clear", "--store", str(store)]) == 0
        assert "dropped 2" in capsys.readouterr().out

    def test_soak_passes_on_seeded_fabrics(self, capsys, tmp_path):
        assert main([
            "synth", "soak", "--fabrics", "3", "--seed", "0",
            "--save-dir", str(tmp_path / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "3/3 fabrics synthesized and verified" in out
        assert not (tmp_path / "artifacts").exists()

    def test_tune_from_topology_json(self, capsys, tmp_path):
        from repro.synth.fabrics import topology_to_json

        path = tmp_path / "topo.json"
        path.write_text(topology_to_json(dgx1_topology()))
        assert main([
            "synth", "tune", "--smoke", "--topology-json", str(path),
        ]) == 0
        assert "winner" in capsys.readouterr().out


class TestExperiment:
    def test_ext_synth_smoke_meets_criteria(self):
        from repro.experiments import ext_synth

        degraded = dgx1_topology().without_link(3, 7)
        degraded.name = "dgx1-nolink37"
        rows = ext_synth.run(
            [dgx1_topology(), degraded], sizes=SMOKE_SIZES, seed=0
        )
        assert rows
        for row in rows:
            assert row.verified and row.ordered and row.exact
            if row.topology == "dgx1":
                assert row.ratio <= ACCEPT_TOLERANCE
            if row.topology == "dgx1-nolink37":
                assert row.ratio < 1.0

    def test_ext_synth_registered(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "ext_synth" in EXPERIMENTS


class TestRuntimeIntegration:
    """The fallback drives real training through the interpreter."""

    def _net(self):
        from repro.dnn.layers import LayerSpec, NetworkModel

        return NetworkModel(
            name="t",
            layers=(LayerSpec(name="L0", params=64, fwd_flops=1e6),),
        )

    @staticmethod
    def _grad(w, gpu, it):
        rng = np.random.default_rng(97 * it + gpu)
        return rng.standard_normal(64)

    def test_elastic_trains_on_infeasible_member_set(self):
        from repro.runtime.elastic import ElasticTrainer

        trainer = ElasticTrainer(
            dgx1_topology(), self._net(), self._grad,
            detour_preference=DETOUR_NODES,
            chunks_per_tree=2,
            learning_rate=0.1,
            initial_members=(0, 5, 6, 7),
        )
        report = trainer.train(np.zeros(64), iterations=3)
        assert len(report.weight_checksums) == 3

        # The plan check flags the synthesized fallback.
        check = trainer.plan_check_for(frozenset((0, 5, 6, 7)))
        assert check.verified
        assert any("synthesized fallback" in n for n in check.notes)

        # The SGD math matches the serial reference: each member adopts
        # the dead GPUs' shards, so every step sums all 8 logical
        # gradients (w -= lr * sum).
        w = np.zeros(64)
        for it in range(3):
            g = np.sum(
                [np.asarray(self._grad(w, gpu, it), dtype=np.float64)
                 for gpu in range(8)],
                axis=0,
            )
            w = w - 0.1 * g
        assert np.allclose(report.weights, w, atol=1e-12)

    def test_elastic_crash_on_synthesized_members_recovers(self):
        # A crash landing while the member set runs a synthesized plan
        # is armed inside the interpreter, detected off its phase board,
        # and recovered — bit-exact against the multi-segment reference.
        from repro.runtime.elastic import (
            ElasticTrainer,
            MembershipEvent,
            elastic_serial_reference,
        )

        trainer = ElasticTrainer(
            dgx1_topology(), self._net(), self._grad,
            detour_preference=DETOUR_NODES,
            chunks_per_tree=2,
            learning_rate=0.1,
            initial_members=(0, 5, 6, 7),
        )
        report = trainer.train(
            np.zeros(64), iterations=4,
            events=(MembershipEvent(
                kind="crash", gpu=5, at_iteration=2,
            ),),
        )
        (record,) = report.records
        assert record.dead_detected == (5,)
        assert record.fault_stats.get("crashes") == 1
        assert report.members == (0, 6, 7)
        reference = elastic_serial_reference(
            self._net(), self._grad, np.zeros(64),
            segments=report.segments,
            layout=trainer.layout,
            iterations=4,
            learning_rate=0.1,
        )
        assert np.array_equal(report.weights, reference)
