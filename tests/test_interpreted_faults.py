"""Fault-tolerant plan execution: crashes inside interpreted segments.

The recovery and elastic trainers used to refuse fault injection
whenever the active member set ran a *synthesized* fallback plan — the
fault machinery only knew the hand-written tree kernels.  This suite
pins the unified behaviour:

- :func:`~repro.plan.interpreter.plan_reduce_order` replays any legal
  plan serially in the exact order the threaded interpreter commits
  reductions, so serial references can cross plan-path boundaries;
- a :class:`FaultPlan` armed inside the interpreter joins the fail-fast
  abort protocol and surfaces injector counters plus per-op ``origin``
  provenance in the abort dump, and each span of
  :class:`ElasticTrainer` runs one interpreter built on its member
  set's verified plan;
- a crash — and a *cascade* (second crash while already degraded on a
  synthesized plan) — detected mid-interpreted-segment drives the same
  detect → re-embed → verify → resume machinery, bit-exact against the
  plan-aware serial reference;
- the every-site checkpoint drill proves crash-at-any-durable-write
  recovery, and the seeded ``repro chaos plan`` drill soaks the whole
  story through the CLI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.errors import AbortedError, CheckpointError, ConfigError
from repro.plan import (
    PlanInterpreter,
    build_plan,
    plan_reduce_order,
)
from repro.runtime import (
    Checkpointer,
    CheckpointState,
    ElasticTrainer,
    FaultPlan,
    GpuFault,
    MemoryBackend,
    MembershipEvent,
    RecoveryPolicy,
    ResilientTrainer,
    SimulatedCrash,
    elastic_serial_reference,
    enumerate_write_sites,
    every_site_drill,
    recovery_serial_reference,
    segment_reduce_order,
)
from repro.runtime.faults import CRASH
from repro.runtime.recovery import REEMBED
from repro.runtime.sync import SpinConfig
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.tree_search import search_degraded_pair

FAST = SpinConfig(timeout=10.0)
ELEMS = 256

#: A dead quad on DGX-1 leaves survivors (0, 5, 6, 7), whose only
#: feasible embedding is a synthesized fallback plan — the canonical
#: "whole run is interpreted" fixture.
DEAD_QUAD = (1, 2, 3, 4)


def make_network(elems: int = ELEMS) -> NetworkModel:
    return NetworkModel(
        name="interp",
        layers=(LayerSpec(name="L0", params=elems, fwd_flops=1e6),),
    )


def make_gradient_fn(elems: int = ELEMS, seed: int = 0):
    rng = np.random.default_rng(seed)
    targets = [rng.normal(size=elems) for _ in range(8)]

    def fn(weights, gpu, iteration):
        return (weights - targets[gpu]) / (1.0 + 0.1 * iteration)

    return fn


def synthesized_embedding(dead=DEAD_QUAD):
    emb = search_degraded_pair(
        dgx1_topology(), dead,
        detour_preference=DETOUR_NODES, synth_fallback=True,
    )
    assert emb.synthesized, "fixture must force the synthesized path"
    return emb


def make_resilient(gradient_fn, *, initial_dead=(), elems: int = ELEMS):
    return ResilientTrainer(
        dgx1_topology(),
        make_network(elems),
        gradient_fn,
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=0.02,
        policy=RecoveryPolicy(mode=REEMBED),
        spin=FAST,
        detour_preference=DETOUR_NODES,
        initial_dead=initial_dead,
    )


def make_elastic(
    gradient_fn, *, initial_members=None, elems: int = ELEMS, **kwargs
):
    return ElasticTrainer(
        dgx1_topology(),
        make_network(elems),
        gradient_fn,
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=0.02,
        policy=RecoveryPolicy(mode=REEMBED),
        spin=FAST,
        detour_preference=DETOUR_NODES,
        initial_members=initial_members,
        **kwargs,
    )


class TestPlanReduceOrder:
    """Serial replay of a plan == the threaded interpreter, bitwise."""

    def _run_both(self, plan, seed: int):
        rng = np.random.default_rng(seed)
        grads = [rng.normal(size=ELEMS) for _ in range(plan.nnodes)]
        threaded = PlanInterpreter(
            plan, total_elems=ELEMS, spin=FAST
        ).run([g.copy() for g in grads]).outputs
        serial = plan_reduce_order(plan, total_elems=ELEMS)(
            [g.copy() for g in grads]
        )
        return threaded, serial

    def test_synthesized_fallback_plan_matches(self):
        plan = synthesized_embedding().plan
        threaded, serial = self._run_both(plan, seed=1)
        for out in threaded:
            assert np.array_equal(out, serial)

    def test_ring_plan_matches(self):
        plan = build_plan("ring", 8, ELEMS * 8)
        threaded, serial = self._run_both(plan, seed=2)
        for out in threaded:
            assert np.array_equal(out, serial)

    @pytest.mark.parametrize("seed", (3, 17, 29))
    def test_double_tree_plan_matches_across_seeds(self, seed):
        plan = build_plan("double_tree", 8, ELEMS * 8, nchunks=4)
        threaded, serial = self._run_both(plan, seed=seed)
        for out in threaded:
            assert np.array_equal(out, serial)

    def test_segment_reduce_order_dispatches_on_synthesis(self):
        from repro.runtime.training import tree_reduce_order

        emb = synthesized_embedding()
        layout = None  # synthesized path never touches the tree layout
        order = segment_reduce_order(emb, layout, ELEMS)
        grads = [np.full(ELEMS, float(g + 1)) for g in range(emb.plan.nnodes)]
        expected = plan_reduce_order(emb.plan, total_elems=ELEMS)(grads)
        assert np.array_equal(order(grads), expected)


class TestInterpretedSegmentFaults:
    """FaultPlan armed inside the interpreter: abort + diagnostics."""

    def test_tree_embedding_runs_checked_plan(self):
        # A tree embedding carries no plan of its own: its spans run the
        # double-tree plan ElasticTrainer.plan_check_for compiled and
        # verified for the member set.
        members = frozenset(g for g in range(8) if g != 3)
        trainer = make_elastic(make_gradient_fn())
        tree = trainer.embedding_for(members)
        assert not tree.synthesized and tree.plan is None
        check = trainer.plan_check_for(members)
        interpreter = trainer._interpreter(members)
        assert check.verified and len(interpreter.plan.ops) == check.nops
        assert interpreter.nnodes == len(members)

    def test_crash_aborts_with_fault_stats_and_origin_dump(self):
        emb = synthesized_embedding()
        armed = FaultPlan(
            gpu_faults=(GpuFault(gpu=1, kind=CRASH, after_chunk=0),),
        )
        interpreter = PlanInterpreter(
            emb.plan, total_elems=ELEMS, spin=FAST, fault_plan=armed,
        )
        with pytest.raises(AbortedError) as excinfo:
            interpreter.run([np.ones(ELEMS) for _ in range(emb.plan.nnodes)])
        assert "injected crash" in excinfo.value.reason
        # Satellite: the abort dump surfaces injector counters and the
        # active op's origin provenance for every plan thread block.
        assert "plan fault stats" in excinfo.value.diagnostics
        assert "crashes=1" in excinfo.value.diagnostics
        assert "active plan op (origin provenance)" in (
            excinfo.value.diagnostics
        )
        assert "origin=" in excinfo.value.diagnostics
        assert armed.stats.snapshot()["crashes"] == 1

    def test_no_fault_plan_runs_clean(self):
        fn = make_gradient_fn()
        trainer = make_elastic(fn, initial_members=(0, 5, 6, 7))
        report = trainer.train(np.zeros(ELEMS), iterations=2)
        assert len(report.weight_checksums) == 2
        assert report.records == []

    @staticmethod
    def count_proofs(monkeypatch) -> list:
        """One entry per ``prove_send_aliasing`` call from now on."""
        import repro.plan.compiler as compiler_mod

        calls = []
        prove = compiler_mod.prove_send_aliasing

        def counting(*args, **kwargs):
            calls.append(1)
            return prove(*args, **kwargs)

        monkeypatch.setattr(compiler_mod, "prove_send_aliasing", counting)
        return calls

    def test_one_interpreter_and_aliasing_proof_per_segment(
        self, monkeypatch
    ):
        fn = make_gradient_fn()
        trainer = make_elastic(fn, initial_members=(0, 5, 6, 7))
        trainer.plan_check_for(frozenset((0, 5, 6, 7)))
        calls = self.count_proofs(monkeypatch)
        built = []
        make = trainer._interpreter

        def spy(members, fault_plan=None):
            built.append(make(members, fault_plan))
            return built[-1]

        monkeypatch.setattr(trainer, "_interpreter", spy)
        trainer.train(np.zeros(ELEMS), iterations=3)
        assert len(built) == 1 and len(calls) == 1
        # The last run's abort surface stays readable for drain/detect.
        assert built[0].abort_cell is not None
        assert built[0].phase_board is not None

    def test_one_aliasing_proof_per_span_under_checkpointing(
        self, monkeypatch
    ):
        # A checkpoint at every iteration splits the span six times;
        # the span still builds one interpreter, so one proof.
        fn = make_gradient_fn()
        trainer = make_elastic(
            fn, initial_members=(0, 5, 6, 7),
            checkpointer=Checkpointer(MemoryBackend()),
            checkpoint_every=1,
        )
        assert trainer.embedding_for(frozenset((0, 5, 6, 7))).synthesized
        calls = self.count_proofs(monkeypatch)
        w0 = np.random.default_rng(8).normal(size=ELEMS)
        report = trainer.train(w0.copy(), iterations=6)
        assert len(calls) == 1
        assert report.checkpoint_counters["commits"] == 6
        assert len(report.weight_checksums) == 6
        reference = elastic_serial_reference(
            make_network(), fn, w0.copy(),
            segments=report.segments,
            layout=trainer.layout,
            iterations=6,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)


class TestResilientInterpretedRecovery:
    """Crash + cascade inside interpreted segments, bit-exact."""

    def test_crash_in_interpreted_segment_recovers_bit_exact(self):
        fn = make_gradient_fn()
        trainer = make_resilient(fn, initial_dead=DEAD_QUAD)
        assert trainer.initial_embedding.synthesized
        w0 = np.random.default_rng(4).normal(size=ELEMS)
        plan = FaultPlan(
            gpu_faults=(GpuFault(gpu=5, kind=CRASH, after_chunk=0),),
        )
        report = trainer.train(
            w0.copy(), iterations=5,
            fault_plan=plan, fault_at_iteration=2,
        )
        assert report.aborted
        assert report.initial_dead == DEAD_QUAD
        assert report.dead_gpus == (5,)
        assert report.fault_stats.get("crashes") == 1
        assert report.embedding is not None
        reference = recovery_serial_reference(
            make_network(), fn, w0.copy(),
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=5,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)

    def test_cascade_across_interpreted_segments_recovers_bit_exact(self):
        # Second crash while already degraded on a synthesized plan —
        # the multi-segment reference crosses three plan paths.
        fn = make_gradient_fn()
        trainer = make_resilient(fn, initial_dead=DEAD_QUAD)
        w0 = np.random.default_rng(5).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=7,
            fault_plan=FaultPlan(
                gpu_faults=(GpuFault(gpu=5, kind=CRASH, after_chunk=0),),
            ),
            fault_at_iteration=2,
            cascade_fault_plan=FaultPlan(
                gpu_faults=(GpuFault(gpu=6, kind=CRASH, after_chunk=0),),
            ),
            cascade_at_iteration=2,
        )
        assert report.aborted
        assert report.dead_gpus == (5,)
        assert report.cascade_dead_gpus == (6,)
        assert report.fault_stats.get("crashes") == 1
        assert report.cascade_fault_stats.get("crashes") == 1
        assert report.cascade_embedding is not None
        reference = recovery_serial_reference(
            make_network(), fn, w0.copy(),
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=7,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)

    def test_fault_on_non_member_of_degraded_group_is_rejected(self):
        fn = make_gradient_fn()
        trainer = make_resilient(fn, initial_dead=DEAD_QUAD)
        with pytest.raises(ConfigError, match="not a member"):
            trainer.train(
                np.zeros(ELEMS), iterations=3,
                fault_plan=FaultPlan(
                    gpu_faults=(
                        GpuFault(gpu=2, kind=CRASH, after_chunk=0),
                    ),
                ),
                fault_at_iteration=1,
            )


class TestElasticInterpretedFaults:
    """ElasticTrainer crashes on synthesized member sets."""

    def test_crash_on_synthesized_members_recovers_bit_exact(self):
        fn = make_gradient_fn()
        trainer = make_elastic(fn, initial_members=(0, 5, 6, 7))
        w0 = np.random.default_rng(6).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=5,
            events=(MembershipEvent("crash", 5, 2),),
        )
        (record,) = report.records
        assert record.dead_detected == (5,)
        assert record.fault_stats.get("crashes") == 1
        reference = elastic_serial_reference(
            make_network(), fn, w0.copy(),
            segments=report.segments,
            layout=trainer.layout,
            iterations=5,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)

    def test_interpreted_cascade_crash_then_crash(self):
        # Both crashes land inside interpreted segments: 4 members on a
        # synthesized plan, then 3, then 2.
        fn = make_gradient_fn()
        trainer = make_elastic(fn, initial_members=(0, 5, 6, 7))
        w0 = np.random.default_rng(7).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=7,
            events=(
                MembershipEvent("crash", 5, 2),
                MembershipEvent("crash", 6, 4),
            ),
        )
        assert [r.dead_detected for r in report.records] == [(5,), (6,)]
        assert all(
            r.fault_stats.get("crashes") == 1 for r in report.records
        )
        assert report.members == (0, 7)
        reference = elastic_serial_reference(
            make_network(), fn, w0.copy(),
            segments=report.segments,
            layout=trainer.layout,
            iterations=7,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)

    def test_same_iteration_crash_leave_join_order(self):
        # Deterministic ordering: crash < leave < join regardless of
        # the order the events were supplied in.
        fn = make_gradient_fn()
        trainer = make_elastic(fn, initial_members=(0, 1, 2, 3, 4, 5, 6))
        w0 = np.random.default_rng(8).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=5,
            events=(
                MembershipEvent("join", 7, 2),
                MembershipEvent("leave", 6, 2),
                MembershipEvent("crash", 3, 2),
            ),
        )
        assert [r.event.kind for r in report.records] == [
            "crash", "leave", "join",
        ]
        assert report.members == (0, 1, 2, 4, 5, 7)
        reference = elastic_serial_reference(
            make_network(), fn, w0.copy(),
            segments=report.segments,
            layout=trainer.layout,
            iterations=5,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)


class TestEverySiteDrill:
    """Crash-at-every-durable-write-site checkpoint recovery."""

    def test_simulated_crash_is_invisible_to_retry_and_cleanup(self):
        # The retry loop catches OSError and the save cleanup catches
        # CheckpointError; SimulatedCrash must evade both to model a
        # real process death.
        assert not issubclass(SimulatedCrash, OSError)
        assert not issubclass(SimulatedCrash, CheckpointError)

    def test_site_enumeration_covers_shards_manifest_and_rename(self):
        state = CheckpointState(
            weights=np.zeros(64), iteration=1, members=tuple(range(8)),
        )
        sites = enumerate_write_sites(state)
        assert len(sites) == 10  # 8 shards + manifest + commit rename
        assert [s.op for s in sites] == ["write"] * 9 + ["rename"]
        assert "manifest.json" in sites[8].path

    def test_every_site_recovers(self):
        report = every_site_drill(elems=64, seed=0)
        assert report["ok"]
        assert report["nsites"] == 10
        assert report["nscenarios"] == 20  # 2 fates per site
        committed_after = [
            row for row in report["sites"]
            if row["op"] == "rename" and row["fate"] == "after"
        ]
        # The one post-commit crash must surface the *new* generation.
        assert all(
            row["recovered_iteration"] == 2 for row in committed_after
        )


SMOKE_SEEDS = (11, 23, 47)


class TestChaosPlanCli:
    """The seeded interpreted-segment drill through the CLI."""

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_chaos_plan_smoke(self, seed, capsys):
        assert main([
            "chaos", "plan", "--seed", str(seed), "--elems", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to serial recovery reference: yes" in out
        assert "synthesized" in out
        assert "policy: reembed — degraded" in out

    def test_chaos_plan_cascade(self, capsys):
        assert main([
            "chaos", "plan", "--seed", "5", "--elems", "256", "--cascade",
        ]) == 0
        out = capsys.readouterr().out
        assert "cascade" in out
        assert "bit-identical to serial recovery reference: yes" in out

    def test_chaos_plan_cascade_after_restart(self, capsys):
        # Replacement GPUs restore the full machine; the cascade still
        # fires there and is detected.
        assert main([
            "chaos", "plan", "--seed", "7", "--elems", "256", "--cascade",
            "--policy", "restart",
        ]) == 0
        out = capsys.readouterr().out
        assert "after cascading crash" in out
        assert "bit-identical to serial recovery reference: yes" in out

    @pytest.mark.parametrize("spec, message", [
        ("1,x", "bad --initial-dead '1,x'"),
        ("1,9,3", "initial dead GPU 9 not in 'dgx1'"),
    ])
    def test_bad_initial_dead_clean_error(self, spec, message, capsys):
        assert main(["chaos", "plan", "--initial-dead", spec]) == 2
        assert message in capsys.readouterr().err

    def test_ckpt_drill_every_site(self, capsys):
        assert main(["ckpt", "drill", "--every-site"]) == 0
        out = capsys.readouterr().out
        assert "20 crash scenarios" in out

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", tuple(range(20)))
    def test_chaos_plan_soak(self, seed, capsys):
        """Nightly: 20 seeded victims inside interpreted segments, every
        one recovering bit-exact."""
        assert main([
            "chaos", "plan", "--seed", str(seed), "--elems", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to serial recovery reference: yes" in out
