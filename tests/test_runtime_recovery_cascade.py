"""Cascading-crash drill: a second GPU dies while running degraded.

The trainer must re-embed a second time on the 6 survivors, adopt both
orphaned shards, and stay bit-identical to the fault-free serial
reference that replays all three reduction orders (8-GPU healthy,
7-rank degraded, 6-rank degraded)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.runtime.faults import CRASH, FaultPlan, GpuFault
from repro.runtime.recovery import (
    REEMBED,
    RESTART,
    RecoveryPolicy,
    ResilientTrainer,
    recovery_serial_reference,
)
from repro.runtime.sync import SpinConfig
from repro.runtime.training import (
    quadratic_gradient,
    serial_reference,
    tree_reduce_order,
)
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

FAST = SpinConfig(timeout=10.0)
ELEMS = 256


def make_trainer(gradient_fn, policy=REEMBED):
    network = NetworkModel(
        name="cascade",
        layers=(LayerSpec(name="L0", params=ELEMS, fwd_flops=1e6),),
    )
    return ResilientTrainer(
        dgx1_topology(),
        network,
        gradient_fn,
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=0.02,
        policy=RecoveryPolicy(mode=policy),
        spin=FAST,
        detour_preference=DETOUR_NODES,
        search_iterations=400,
        search_restarts=2,
    )


def crash_plan(gpu: int, after_chunk: int = 1) -> FaultPlan:
    return FaultPlan(
        gpu_faults=(GpuFault(gpu, CRASH, after_chunk=after_chunk),)
    )


def dead_gpus(report) -> tuple[int, ...]:
    """Every GPU the run lost, across all of its membership records."""
    return tuple(sorted({g for r in report.records for g in r.dead_detected}))


def run_cascade(rng, *, first=3, second=6, iterations=4,
                fault_at=1, cascade_at=1):
    targets = [rng.normal(size=ELEMS) for _ in range(8)]
    trainer = make_trainer(quadratic_gradient(targets))
    w0 = rng.normal(size=ELEMS)
    report = trainer.train(
        w0,
        iterations=iterations,
        fault_plan=crash_plan(first),
        fault_at_iteration=fault_at,
        cascade_fault_plan=crash_plan(second),
        cascade_at_iteration=cascade_at,
    )
    return trainer, w0, report, targets


class TestCascadingCrash:
    def test_second_crash_reembeds_on_six(self, rng):
        trainer, w0, report, _ = run_cascade(rng)
        assert report.aborted
        assert report.dead_gpus == (3,)
        assert report.cascade_dead_gpus == (6,)
        assert dead_gpus(report) == (3, 6)
        assert report.embedding.topology.nnodes == 7
        assert report.cascade_embedding.topology.nnodes == 6
        assert report.cascade_decision.action == REEMBED

    def test_orphaned_shards_all_adopted(self, rng):
        _, _, report, _ = run_cascade(rng)
        adopted = [
            shard
            for shards in report.cascade_assignments.values()
            for shard in shards
        ]
        assert sorted(adopted) == list(range(8))

    def test_timeline_records_both_recoveries(self, rng):
        _, _, report, _ = run_cascade(rng)
        text = "\n".join(report.timeline)
        assert "cascade abort" in text
        assert text.count("re-embed:") == 2
        assert "after cascading crash" in text

    def test_weight_checksums_full_length(self, rng):
        _, _, report, _ = run_cascade(rng, iterations=5)
        assert len(report.weight_checksums) == 5

    def test_bit_identical_to_serial_reference(self, rng):
        trainer, w0, report, targets = run_cascade(rng)
        reference = recovery_serial_reference(
            trainer.network,
            quadratic_gradient(targets),
            w0,
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=4,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)

    def test_cascade_targeting_dead_gpu_rejected(self, rng):
        targets = [rng.normal(size=ELEMS) for _ in range(8)]
        trainer = make_trainer(quadratic_gradient(targets))
        with pytest.raises(ConfigError):
            trainer.train(
                rng.normal(size=ELEMS),
                iterations=3,
                fault_plan=crash_plan(3),
                fault_at_iteration=1,
                cascade_fault_plan=crash_plan(3),
            )

    def test_cascade_at_iteration_validated(self, rng):
        targets = [rng.normal(size=ELEMS) for _ in range(8)]
        trainer = make_trainer(quadratic_gradient(targets))
        with pytest.raises(ConfigError):
            trainer.train(
                rng.normal(size=ELEMS),
                iterations=3,
                fault_plan=crash_plan(3),
                fault_at_iteration=1,
                cascade_fault_plan=crash_plan(6),
                cascade_at_iteration=5,
            )


class TestCascadeAfterRestart:
    def test_cascade_fires_and_recovers_bit_exact(self, rng):
        # Replacement GPUs bring the full machine back after the first
        # crash; the second crash still fires on that machine.
        targets = [rng.normal(size=ELEMS) for _ in range(8)]
        trainer = make_trainer(quadratic_gradient(targets), RESTART)
        w0 = rng.normal(size=ELEMS)
        report = trainer.train(
            w0,
            iterations=4,
            fault_plan=crash_plan(3),
            fault_at_iteration=1,
            cascade_fault_plan=crash_plan(6),
            cascade_at_iteration=1,
        )
        assert report.decision.action == RESTART
        assert report.embedding is None
        assert report.cascade_dead_gpus == (6,)
        assert report.cascade_decision.action == RESTART
        assert report.cascade_resumed_from_iteration == 2
        reference = recovery_serial_reference(
            trainer.network,
            quadratic_gradient(targets),
            w0,
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=4,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)
        # Every segment ran the healthy schedule.
        healthy = serial_reference(
            trainer.network, quadratic_gradient(targets), w0,
            nnodes=8, iterations=4, learning_rate=0.02,
            reduce_order=tree_reduce_order(trainer.trees, trainer.layout),
        )
        assert np.array_equal(report.weights, healthy)


class TestSeededChaos:
    """Seeded chaos drill: random crash pair, random timing — always
    recovers and always matches the serial reference bit-for-bit."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_random_cascade_recovers_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        first, second = rng.choice(8, size=2, replace=False)
        iterations = int(rng.integers(3, 6))
        fault_at = int(rng.integers(0, iterations - 1))
        cascade_at = int(
            rng.integers(0, iterations - fault_at)
        )
        targets = [rng.normal(size=ELEMS) for _ in range(8)]
        trainer = make_trainer(quadratic_gradient(targets))
        w0 = rng.normal(size=ELEMS)
        report = trainer.train(
            w0,
            iterations=iterations,
            fault_plan=crash_plan(int(first)),
            fault_at_iteration=fault_at,
            cascade_fault_plan=crash_plan(int(second)),
            cascade_at_iteration=cascade_at,
        )
        assert dead_gpus(report) == tuple(sorted((first, second)))
        assert report.cascade_embedding.topology.nnodes == 6
        reference = recovery_serial_reference(
            trainer.network,
            quadratic_gradient(targets),
            w0,
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=iterations,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, reference)
        assert np.all(np.isfinite(report.weights))
