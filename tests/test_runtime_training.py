"""Tests for functional multi-iteration training and fault injection."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.sync import SpinConfig
from repro.runtime.training import (
    FunctionalTrainer,
    quadratic_gradient,
    serial_reference,
)
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.logical import two_trees

FAST = SpinConfig(timeout=20.0, pause=0.0)


def make_setup(rng, *, overlapped=True, chaos=0.0):
    layers = tuple(
        LayerSpec(name=f"L{i}", params=256 * (i + 1), fwd_flops=1e6)
        for i in range(4)
    )
    net = NetworkModel(name="train", layers=layers)
    runtime = TreeAllReduceRuntime(
        dgx1_trees(),
        total_elems=net.total_params,
        chunks_per_tree=4,
        overlapped=overlapped,
        detour_map=DETOURED_EDGES,
        spin=FAST,
        chaos_delay=chaos,
    )
    targets = [rng.normal(size=net.total_params) for _ in range(8)]
    return net, runtime, targets


class TestFunctionalTraining:
    def test_matches_serial_reference(self, rng):
        net, runtime, targets = make_setup(rng)
        trainer = FunctionalTrainer(
            runtime, net, quadratic_gradient(targets), learning_rate=0.01
        )
        w0 = rng.normal(size=net.total_params)
        result = trainer.train(w0.copy(), iterations=4)
        reference = serial_reference(
            net, quadratic_gradient(targets), w0.copy(),
            nnodes=8, iterations=4, learning_rate=0.01,
        )
        np.testing.assert_allclose(result.weights, reference,
                                   rtol=1e-10, atol=1e-10)

    def test_converges_toward_mean_target(self, rng):
        net, runtime, targets = make_setup(rng)
        # Gradient sum = 8w - sum(t); fixed point w* = mean(t).
        trainer = FunctionalTrainer(
            runtime, net, quadratic_gradient(targets), learning_rate=0.05
        )
        w0 = rng.normal(size=net.total_params)
        result = trainer.train(w0.copy(), iterations=12)
        mean_target = np.mean(targets, axis=0)
        before = np.linalg.norm(w0 - mean_target)
        after = np.linalg.norm(result.weights - mean_target)
        assert after < 0.05 * before

    def test_history_length(self, rng):
        net, runtime, targets = make_setup(rng)
        trainer = FunctionalTrainer(runtime, net, quadratic_gradient(targets))
        result = trainer.train(
            np.zeros(net.total_params), iterations=3
        )
        assert len(result.weight_history) == 3

    def test_dequeue_order_every_iteration(self, rng):
        net, runtime, targets = make_setup(rng)
        trainer = FunctionalTrainer(runtime, net, quadratic_gradient(targets))
        result = trainer.train(np.zeros(net.total_params), iterations=3)
        for orders in result.dequeue_orders:
            for gpu, order in orders.items():
                assert order == list(range(len(net))), (gpu, order)

    def test_overlapped_and_baseline_weights_bit_identical(self, rng):
        net1, runtime1, targets = make_setup(rng, overlapped=True)
        _, runtime2, _ = make_setup(
            np.random.default_rng(0), overlapped=False
        )
        fn = quadratic_gradient(targets)
        w0 = rng.normal(size=net1.total_params)
        r1 = FunctionalTrainer(runtime1, net1, fn).train(
            w0.copy(), iterations=3
        )
        r2 = FunctionalTrainer(runtime2, net1, fn).train(
            w0.copy(), iterations=3
        )
        assert np.array_equal(r1.weights, r2.weights)

    def test_train_makes_no_byte_offset_calls(self, rng, monkeypatch):
        """Layer element ranges and the layer-chunk table are computed
        once, when the trainer is built, not per layer per GPU per op."""
        net, runtime, targets = make_setup(rng)
        trainer = FunctionalTrainer(runtime, net, quadratic_gradient(targets))
        calls = []
        original = NetworkModel.byte_offset

        def counting(self, index):
            calls.append(index)
            return original(self, index)

        monkeypatch.setattr(NetworkModel, "byte_offset", counting)
        trainer.train(np.zeros(net.total_params), iterations=2)
        assert calls == []

    @pytest.mark.no_sanitize  # the tracer's bookkeeping would set the peak
    def test_previous_iteration_released_before_the_next(self, rng):
        """Peak traced memory of a 3-iteration run on 64 Ki elements.

        Each per-GPU array is 0.5 MB.  Keeping the previous iteration's
        result (8 weight arrays, 8 reduced outputs) alive while the next
        allocates its own peaked at ~43 arrays; releasing it first peaks
        at ~29 arrays."""
        layers = tuple(
            LayerSpec(name=f"L{i}", params=8192, fwd_flops=1e6)
            for i in range(8)
        )
        net = NetworkModel(name="mem", layers=layers)
        n = net.total_params
        runtime = TreeAllReduceRuntime(
            two_trees(8), total_elems=n, chunks_per_tree=4, spin=FAST
        )
        targets = [rng.normal(size=n) for _ in range(8)]
        trainer = FunctionalTrainer(
            runtime, net, quadratic_gradient(targets), learning_rate=0.01
        )
        w0 = rng.normal(size=n)
        trainer.train(w0, iterations=1)  # warm caches
        tracemalloc.start()
        try:
            trainer.train(w0, iterations=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 36 * n * 8

    def test_validation(self, rng):
        net, runtime, targets = make_setup(rng)
        trainer = FunctionalTrainer(runtime, net, quadratic_gradient(targets))
        with pytest.raises(ConfigError):
            trainer.train(np.zeros(net.total_params), iterations=0)
        with pytest.raises(ConfigError):
            trainer.train(np.zeros(3), iterations=1)


class TestFaultInjection:
    def test_chaos_preserves_results(self, rng):
        """Random link delays must not change any output bit: the
        synchronization protocol is timing-independent."""
        net, clean_runtime, targets = make_setup(rng, chaos=0.0)
        _, chaotic_runtime, _ = make_setup(
            np.random.default_rng(0), chaos=2e-3
        )
        inputs = [rng.normal(size=net.total_params) for _ in range(8)]
        clean = clean_runtime.run([a.copy() for a in inputs])
        noisy = chaotic_runtime.run([a.copy() for a in inputs])
        for a, b in zip(clean.outputs, noisy.outputs):
            assert np.array_equal(a, b)

    def test_chaos_enqueue_streams_still_in_order(self, rng):
        net, _, _ = make_setup(rng)
        runtime = TreeAllReduceRuntime(
            two_trees(8),
            total_elems=net.total_params,
            chunks_per_tree=4,
            overlapped=True,
            spin=FAST,
            chaos_delay=1e-3,
            chaos_seed=7,
        )
        report = runtime.run(
            [rng.normal(size=net.total_params) for _ in range(8)]
        )
        for times in report.enqueue_times.values():
            assert times == sorted(times)

    def test_negative_chaos_rejected(self, rng):
        net, _, _ = make_setup(rng)
        with pytest.raises(ConfigError):
            TreeAllReduceRuntime(
                two_trees(8),
                total_elems=net.total_params,
                chunks_per_tree=2,
                chaos_delay=-1.0,
            )
