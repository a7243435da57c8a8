"""Larger-scale functional runtime stress: 16 virtual GPUs."""

import numpy as np
import pytest

from repro.dnn.layers import LayerSpec, NetworkModel
from repro.plan import PlanInterpreter, build_ring_plan
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.queue_runtime import ChainedTrainingRuntime
from repro.runtime.sync import SpinConfig
from repro.topology.logical import two_trees

FAST = SpinConfig(timeout=30.0)


class TestSixteenGpuTree:
    def test_double_tree_allreduce_16_gpus(self, rng):
        inputs = [rng.normal(size=1024) for _ in range(16)]
        runtime = TreeAllReduceRuntime(
            two_trees(16), total_elems=1024, chunks_per_tree=8, spin=FAST
        )
        report = runtime.run([a.copy() for a in inputs])
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_chained_training_16_gpus(self, rng):
        layers = tuple(
            LayerSpec(name=f"L{i}", params=128, fwd_flops=1e6)
            for i in range(8)
        )
        net = NetworkModel(name="wide", layers=layers)
        runtime = TreeAllReduceRuntime(
            two_trees(16), total_elems=net.total_params,
            chunks_per_tree=4, spin=FAST,
        )
        grads = [rng.normal(size=net.total_params) for _ in range(16)]
        result = ChainedTrainingRuntime(runtime, net).run(grads)
        for gpu in range(16):
            order = [rec.layer for rec in result.compute_log[gpu]]
            assert order == list(range(8))
        for w in result.weights[1:]:
            assert np.array_equal(result.weights[0], w)


class TestSixteenGpuRing:
    def test_ring_allreduce_16_gpus(self, rng):
        inputs = [rng.normal(size=16 * 16) for _ in range(16)]
        interp = PlanInterpreter(
            build_ring_plan(16, 16 * 128.0), total_elems=16 * 16, spin=FAST
        )
        report = interp.run(inputs)
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("nnodes", [6, 12])
def test_non_power_of_two_gpu_counts(rng, nnodes):
    """Tree runtimes work for any node count (unlike halving-doubling)."""
    inputs = [rng.normal(size=nnodes * 32) for _ in range(nnodes)]
    runtime = TreeAllReduceRuntime(
        two_trees(nnodes), total_elems=nnodes * 32,
        chunks_per_tree=4, spin=FAST,
    )
    report = runtime.run([a.copy() for a in inputs])
    expected = np.sum(inputs, axis=0)
    for out in report.outputs:
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
