"""Tests for the degraded-mode recovery path (survivor re-embedding).

The recovery state machine (abort -> drain -> detect -> decide ->
re-embed -> resume) is exercised piecewise — detection, drain, policy,
shard adoption — and end to end through :class:`ResilientTrainer`, whose
recovered weights must be **bit-identical** to the fault-free serial
reference replaying the same reduction orders on both sides of the
crash.
"""

import numpy as np
import pytest

from repro.errors import AbortedError, ConfigError
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.models.costmodel import CostParams
from repro.plan import PlanInterpreter, build_plan, compile_plan
from repro.runtime import elastic
from repro.runtime.elastic import ElasticTrainer, MembershipEvent
from repro.runtime.faults import CRASH, STUCK, FaultPlan, GpuFault
from repro.runtime.recovery import (
    COST_BASED,
    REEMBED,
    RESTART,
    RecoveryPolicy,
    ResilientTrainer,
    adopted_gradient_fn,
    detect_dead_gpus,
    drain_aborted_run,
    recovery_serial_reference,
    shard_assignments,
)
from repro.runtime.sync import SpinConfig
from repro.runtime.training import (
    quadratic_gradient,
    serial_reference,
    tree_reduce_order,
)
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.routing import Router
from repro.topology.tree_search import search_degraded_pair

FAST = SpinConfig(timeout=10.0)
ELEMS = 256


def make_network(elems: int = ELEMS) -> NetworkModel:
    return NetworkModel(
        name="recover",
        layers=(LayerSpec(name="L0", params=elems, fwd_flops=1e6),),
    )


def make_trainer(gradient_fn, *, policy=None, elems: int = ELEMS):
    return ResilientTrainer(
        dgx1_topology(),
        make_network(elems),
        gradient_fn,
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=0.02,
        policy=policy or RecoveryPolicy(mode=REEMBED),
        spin=FAST,
        detour_preference=DETOUR_NODES,
    )


def crash_plan(gpu: int, *, kind=CRASH, after_chunk: int = 1) -> FaultPlan:
    return FaultPlan(gpu_faults=(GpuFault(gpu, kind, after_chunk=after_chunk),))


def dgx1_interpreter(fault_plan=None, *, spin=FAST) -> PlanInterpreter:
    """The interpreter on the compiled DGX-1 C-Cube plan, the engine an
    :class:`ElasticTrainer` span on all eight GPUs runs."""
    topo = dgx1_topology()
    plan, _ = compile_plan(
        build_plan(
            "double_tree", 8, ELEMS * 8, nchunks=4, overlapped=True,
            trees=dgx1_trees(),
        ),
        topo,
        router=Router(topo, detour_preference=DETOUR_NODES),
    )
    return PlanInterpreter(
        plan, total_elems=ELEMS, spin=spin, fault_plan=fault_plan
    )


def aborted_runtime(rng, plan) -> PlanInterpreter:
    runtime = dgx1_interpreter(plan, spin=SpinConfig(timeout=2.0))
    with pytest.raises(AbortedError):
        runtime.run([rng.normal(size=ELEMS) for _ in range(8)])
    return runtime


class TestDetectAndDrain:
    def test_crashed_gpu_detected(self, rng):
        runtime = aborted_runtime(rng, crash_plan(3))
        assert detect_dead_gpus(runtime) == (3,)

    def test_stuck_gpu_detected(self, rng):
        runtime = aborted_runtime(rng, crash_plan(5, kind=STUCK))
        assert detect_dead_gpus(runtime) == (5,)

    @pytest.mark.parametrize("gpu", [0, 3, 6])
    def test_board_and_abort_reason_name_the_crashed_rank(self, rng, gpu):
        # The fault stamps the board before it fires, so the board alone
        # names the rank; the abort reason names its failing kernel.
        runtime = aborted_runtime(rng, crash_plan(gpu))
        assert f"plan g{gpu} tb" in runtime.abort_cell.reason
        assert "crashed" in runtime.phase_board.get(gpu)
        assert detect_dead_gpus(runtime) == (gpu,)

    def test_drain_returns_fault_stats(self, rng):
        runtime = aborted_runtime(rng, crash_plan(3))
        stats = drain_aborted_run(runtime)
        assert stats.get("crashes") == 1

    @pytest.mark.parametrize("kind", [CRASH, STUCK])
    def test_drain_returns_early_with_no_kernel_left(
        self, rng, kind, monkeypatch
    ):
        import threading
        import time

        monkeypatch.setattr(elastic, "DRAIN_GRACE", 5.0)
        runtime = aborted_runtime(rng, crash_plan(3, kind=kind))
        started = time.monotonic()
        drain_aborted_run(runtime)
        assert time.monotonic() - started < 0.5
        kernels = [
            t for t in threading.enumerate()
            if t.name.startswith("plan g")
        ]
        assert kernels == []
        assert not any(t.is_alive() for t in runtime.abort_cell.stragglers())

    def test_drain_joins_recorded_stragglers_within_grace(self, monkeypatch):
        import threading
        import time
        from types import SimpleNamespace

        from repro.runtime.sync import AbortCell

        release = threading.Event()
        slow = threading.Thread(target=release.wait, args=(5.0,))
        slow.start()
        cell = AbortCell()
        cell.trigger("test abort")
        cell.record_stragglers([slow])
        runtime = SimpleNamespace(abort_cell=cell, fault_plan=None)
        monkeypatch.setattr(elastic, "DRAIN_GRACE", 0.1)
        started = time.monotonic()
        assert drain_aborted_run(runtime) == {}
        # The grace bounds the join even when a straggler outlives it.
        assert 0.09 <= time.monotonic() - started < 1.0
        assert slow.is_alive()
        threading.Timer(0.05, release.set).start()
        monkeypatch.setattr(elastic, "DRAIN_GRACE", 5.0)
        drain_aborted_run(runtime)
        assert not slow.is_alive()

    def test_drain_without_abort_rejected(self):
        with pytest.raises(ConfigError, match="never aborted"):
            drain_aborted_run(dgx1_interpreter())


class TestRecoveryPolicy:
    PARAMS = CostParams(alpha=2e-6, beta=1.0 / 25e9)

    def decide(self, policy, *, remaining=100, nbytes=64e6):
        return policy.decide(
            nnodes_healthy=8,
            nnodes_degraded=7,
            nbytes=nbytes,
            detours=0,
            conflicts=2,
            remaining_iterations=remaining,
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown recovery policy"):
            RecoveryPolicy(mode="coinflip")

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            RecoveryPolicy(restart_overhead=-1.0)

    def test_forced_modes(self):
        for mode, action in ((REEMBED, REEMBED), (RESTART, RESTART)):
            decision = self.decide(RecoveryPolicy(mode=mode))
            assert decision.action == action
            assert "forces" in decision.reason

    def test_cost_mode_prefers_reembed_near_the_end(self):
        policy = RecoveryPolicy(
            mode=COST_BASED, params=self.PARAMS, restart_overhead=30.0
        )
        decision = self.decide(policy, remaining=10)
        assert decision.action == REEMBED
        assert decision.degraded_cost <= decision.restart_cost

    def test_cost_mode_prefers_restart_with_much_work_left(self):
        policy = RecoveryPolicy(
            mode=COST_BASED, params=self.PARAMS, restart_overhead=0.0
        )
        decision = self.decide(policy, remaining=10_000)
        assert decision.action == RESTART
        assert decision.restart_cost < decision.degraded_cost

    def test_negative_iterations_rejected(self):
        with pytest.raises(ConfigError):
            self.decide(RecoveryPolicy(), remaining=-1)


class TestShardAdoption:
    def test_dead_shard_goes_to_dead_mod_nranks(self):
        emb = search_degraded_pair(
            dgx1_topology(), [3],
            detour_preference=DETOUR_NODES,
            iterations=300, restarts=2,
        )
        assignments = shard_assignments(emb, 8)
        # Ranks 0..6 map to physical 0,1,2,4,5,6,7; GPU 3's orphaned
        # shard lands on rank 3 % 7 == 3 (physical GPU 4).
        assert assignments[3] == (4, 3)
        for rank in (0, 1, 2, 4, 5, 6):
            assert assignments[rank] == (emb.gpu_of[rank],)

    def test_adopted_gradient_sums_in_assignment_order(self):
        targets = [np.full(4, float(g)) for g in range(8)]
        base = quadratic_gradient(targets)
        fn = adopted_gradient_fn(base, {0: (4, 3)})
        w = np.zeros(4)
        expected = (w - targets[4]).astype(np.float64) + (w - targets[3])
        assert np.array_equal(fn(w, 0, 0), expected)


class TestResilientTrainer:
    def run_drill(self, rng, *, policy=None, gpu=3, iterations=2,
                  fault_at=1):
        targets = [rng.normal(size=ELEMS) for _ in range(8)]
        w0 = rng.normal(size=ELEMS)
        gradient_fn = quadratic_gradient(targets)
        trainer = make_trainer(gradient_fn, policy=policy)
        report = trainer.train(
            w0.copy(),
            iterations=iterations,
            fault_plan=crash_plan(gpu),
            fault_at_iteration=fault_at,
        )
        return trainer, report, gradient_fn, w0

    def test_no_fault_plan_runs_healthy(self, rng):
        targets = [rng.normal(size=ELEMS) for _ in range(8)]
        trainer = make_trainer(quadratic_gradient(targets))
        report = trainer.train(rng.normal(size=ELEMS), iterations=2)
        assert not report.aborted
        assert report.dead_gpus == ()
        assert report.decision is None
        assert len(report.weight_checksums) == 2

    def test_reembed_recovery_is_bit_exact(self, rng):
        trainer, report, gradient_fn, w0 = self.run_drill(rng)
        assert report.aborted
        assert report.dead_gpus == (3,)
        assert report.decision.action == REEMBED
        assert report.embedding is not None
        assert report.resumed_from_iteration == 1
        reference = recovery_serial_reference(
            make_network(), gradient_fn, w0.copy(),
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=2,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)

    def test_restart_recovery_is_bit_exact(self, rng):
        trainer, report, gradient_fn, w0 = self.run_drill(
            rng, policy=RecoveryPolicy(mode=RESTART)
        )
        assert report.aborted
        assert report.decision.action == RESTART
        assert report.embedding is None
        # Restart replays the healthy schedule end to end, so the plain
        # serial reference applies.
        reference = serial_reference(
            make_network(), gradient_fn, w0.copy(),
            nnodes=8, iterations=2, learning_rate=0.02,
            reduce_order=tree_reduce_order(trainer.trees, trainer.layout),
        )
        assert np.array_equal(report.weights, reference)

    def test_timeline_records_state_machine(self, rng):
        _, report, _, _ = self.run_drill(rng)
        stages = ("abort:", "drain:", "detect:", "decide:", "re-embed:",
                  "resume:")
        for stage in stages:
            assert any(line.startswith(stage) for line in report.timeline), (
                stage, report.timeline
            )

    def test_crash_at_iteration_zero(self, rng):
        _, report, _, _ = self.run_drill(rng, fault_at=0)
        assert report.aborted
        assert report.resumed_from_iteration == 0
        assert len(report.weight_checksums) == 2

    def test_invalid_iteration_args_rejected(self, rng):
        trainer = make_trainer(quadratic_gradient(
            [rng.normal(size=ELEMS) for _ in range(8)]
        ))
        with pytest.raises(ConfigError):
            trainer.train(rng.normal(size=ELEMS), iterations=0)
        with pytest.raises(ConfigError):
            trainer.train(
                rng.normal(size=ELEMS), iterations=2,
                fault_plan=crash_plan(3), fault_at_iteration=5,
            )


    @pytest.mark.parametrize("dead", [(9,), (-1,), (1, 9, 3)])
    def test_initial_dead_outside_topology_rejected(self, rng, dead):
        with pytest.raises(ConfigError, match="not in 'dgx1'"):
            ResilientTrainer(
                dgx1_topology(),
                make_network(),
                quadratic_gradient([rng.normal(size=ELEMS)] * 8),
                trees=dgx1_trees(),
                detour_map=DETOURED_EDGES,
                initial_dead=dead,
            )


class TestRecoverySerialReference:
    def test_requires_an_embedding(self, rng):
        trainer = make_trainer(quadratic_gradient(
            [rng.normal(size=ELEMS) for _ in range(8)]
        ))
        report = trainer.train(rng.normal(size=ELEMS), iterations=2)
        with pytest.raises(ConfigError, match="no degraded embedding"):
            recovery_serial_reference(
                make_network(), trainer.gradient_fn, rng.normal(size=ELEMS),
                report=report,
                healthy_trees=trainer.trees,
                healthy_layout=trainer.layout,
                iterations=2,
            )


class TestOneStateMachine:
    """ResilientTrainer is a configuration of ElasticTrainer: a crash
    fault plan is a crash event of the same state machine."""

    def test_fault_plan_matches_crash_event(self, rng):
        targets = [rng.normal(size=ELEMS) for _ in range(8)]
        w0 = rng.normal(size=ELEMS)
        gradient_fn = quadratic_gradient(targets)
        resilient = make_trainer(gradient_fn).train(
            w0.copy(), iterations=3,
            fault_plan=crash_plan(5, after_chunk=2), fault_at_iteration=1,
        )
        elastic = ElasticTrainer(
            dgx1_topology(),
            make_network(),
            gradient_fn,
            trees=dgx1_trees(),
            detour_map=DETOURED_EDGES,
            learning_rate=0.02,
            policy=RecoveryPolicy(mode=REEMBED),
            spin=FAST,
            detour_preference=DETOUR_NODES,
        ).train(
            w0.copy(), iterations=3,
            events=(MembershipEvent("crash", 5, 1, after_chunk=2),),
        )
        assert np.array_equal(resilient.weights, elastic.weights)
        assert len(resilient.weight_checksums) == 3
        assert len(elastic.weight_checksums) == 3
        for ours, theirs in zip(
            resilient.weight_checksums, elastic.weight_checksums
        ):
            assert ours == theirs

        def layout(report):
            return [(s, e.survivors, a) for s, e, a in report.segments]

        assert layout(resilient) == layout(elastic)
        assert resilient.dead_gpus == (5,)
        assert elastic.records[0].dead_detected == (5,)

    def test_every_record_passes_the_plan_gate(self, rng):
        trainer = make_trainer(quadratic_gradient(
            [rng.normal(size=ELEMS) for _ in range(8)]
        ))
        report = trainer.train(
            rng.normal(size=ELEMS), iterations=2,
            fault_plan=crash_plan(3), fault_at_iteration=1,
        )
        assert report.records
        assert all(r.plan_check.verified for r in report.records)

    @pytest.mark.parametrize("plan", [
        crash_plan(3, kind=STUCK),
        FaultPlan(gpu_faults=(
            GpuFault(3, CRASH, after_chunk=1),
            GpuFault(5, CRASH, after_chunk=1),
        )),
    ])
    def test_only_single_crash_plans_accepted(self, rng, plan):
        trainer = make_trainer(quadratic_gradient(
            [rng.normal(size=ELEMS) for _ in range(8)]
        ))
        with pytest.raises(ConfigError, match="exactly one"):
            trainer.train(
                rng.normal(size=ELEMS), iterations=2,
                fault_plan=plan, fault_at_iteration=1,
            )
