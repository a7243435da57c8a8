"""Tests for gradient queuing + compute chaining on the functional runtime."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.memory import ChunkLayout
from repro.runtime.queue_runtime import (
    ChainedTrainingRuntime,
    layer_requirements,
)
from repro.runtime.sync import SpinConfig
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.logical import two_trees

FAST = SpinConfig(timeout=15.0)


def make_network(layer_params):
    layers = tuple(
        LayerSpec(name=f"L{i}", params=p, fwd_flops=1e6)
        for i, p in enumerate(layer_params)
    )
    return NetworkModel(name="t", layers=layers)


class TestLayerRequirements:
    def test_single_tree_cumulative(self):
        net = make_network([10, 10, 20])
        layout = ChunkLayout.split(40, ntrees=1, chunks_per_tree=4)
        reqs = layer_requirements(net, layout)
        assert reqs == [(1,), (2,), (4,)]

    def test_double_tree_split(self):
        net = make_network([20, 20])  # layer 0 = tree 0, layer 1 = tree 1
        layout = ChunkLayout.split(40, ntrees=2, chunks_per_tree=2)
        reqs = layer_requirements(net, layout)
        assert reqs == [(2, 0), (0, 2)]

    def test_layer_spanning_both_trees(self):
        net = make_network([10, 20, 10])  # middle layer straddles halves
        layout = ChunkLayout.split(40, ntrees=2, chunks_per_tree=2)
        reqs = layer_requirements(net, layout)
        assert reqs[1] == (2, 1)

    def test_size_mismatch_rejected(self):
        net = make_network([10])
        layout = ChunkLayout.split(40, ntrees=1, chunks_per_tree=2)
        with pytest.raises(ConfigError):
            layer_requirements(net, layout)


class TestChainedRun:
    @pytest.fixture
    def setup(self, rng):
        net = make_network([64, 128, 192, 64, 256, 64])
        runtime = TreeAllReduceRuntime(
            dgx1_trees(),
            total_elems=net.total_params,
            chunks_per_tree=4,
            overlapped=True,
            detour_map=DETOURED_EDGES,
            spin=FAST,
        )
        grads = [rng.normal(size=net.total_params) for _ in range(8)]
        return net, runtime, grads

    def test_layers_dequeue_strictly_in_order(self, setup):
        net, runtime, grads = setup
        result = ChainedTrainingRuntime(runtime, net).run(grads)
        for gpu in range(8):
            order = [rec.layer for rec in result.compute_log[gpu]]
            assert order == list(range(len(net)))

    def test_dequeue_never_precedes_required_enqueue(self, setup):
        """Causality: a layer's dequeue timestamp is at or after the
        timestamp of its last required chunk's enqueue on every stream."""
        net, runtime, grads = setup
        chained = ChainedTrainingRuntime(runtime, net)
        result = chained.run(grads)
        for gpu in range(8):
            for rec in result.compute_log[gpu]:
                for tree, needed in enumerate(chained.requirements[rec.layer]):
                    if needed == 0:
                        continue
                    enq = result.report.enqueue_times[(gpu, tree)]
                    assert rec.timestamp >= enq[needed - 1]

    def test_weight_update_uses_reduced_gradients(self, setup):
        net, runtime, grads = setup
        lr = 0.25
        result = ChainedTrainingRuntime(
            runtime, net, learning_rate=lr
        ).run([g.copy() for g in grads])
        expected = -lr * np.sum(grads, axis=0)
        for gpu in range(8):
            np.testing.assert_allclose(result.weights[gpu], expected,
                                       rtol=1e-12, atol=1e-12)

    def test_all_gpus_end_with_identical_weights(self, setup):
        net, runtime, grads = setup
        result = ChainedTrainingRuntime(runtime, net).run(grads)
        for w in result.weights[1:]:
            assert np.array_equal(result.weights[0], w)

    def test_supplied_weights_updated_in_place(self, setup, rng):
        net, runtime, grads = setup
        weights = [rng.normal(size=net.total_params) for _ in range(8)]
        before = [w.copy() for w in weights]
        result = ChainedTrainingRuntime(runtime, net, learning_rate=0.5).run(
            grads, weights=weights
        )
        total = np.sum(grads, axis=0)
        for gpu in range(8):
            np.testing.assert_allclose(
                result.weights[gpu], before[gpu] - 0.5 * total,
                rtol=1e-12, atol=1e-12
            )

    def test_wrong_weight_count_rejected(self, setup):
        net, runtime, grads = setup
        with pytest.raises(ConfigError):
            ChainedTrainingRuntime(runtime, net).run(
                grads, weights=[np.zeros(net.total_params)] * 3
            )


class TestBaselineChaining:
    def test_chaining_works_on_non_overlapped_tree_too(self, rng):
        """C2: gradient queuing over the baseline double tree (phases
        separated) — still correct, chunks just arrive later."""
        net = make_network([64, 64, 128])
        runtime = TreeAllReduceRuntime(
            two_trees(8),
            total_elems=net.total_params,
            chunks_per_tree=2,
            overlapped=False,
            spin=FAST,
        )
        grads = [rng.normal(size=net.total_params) for _ in range(8)]
        result = ChainedTrainingRuntime(runtime, net).run(grads)
        for gpu in range(8):
            order = [rec.layer for rec in result.compute_log[gpu]]
            assert order == [0, 1, 2]
