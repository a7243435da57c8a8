"""Tests for functional multi-iteration training and fault injection."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.plan import PlanInterpreter, build_plan
from repro.runtime import (
    Checkpointer,
    ElasticTrainer,
    MembershipEvent,
    MemoryBackend,
    RecoveryPolicy,
    elastic_serial_reference,
)
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.faults import FaultPlan
from repro.runtime.queue_runtime import (
    ChainedTrainingRuntime,
    FunctionalTrainer,
)
from repro.runtime.recovery import REEMBED, RESTART
from repro.runtime.sync import SpinConfig
from repro.runtime.training import (
    private_gradient,
    quadratic_gradient,
    serial_reference,
    sgd_span,
    tree_reduce_order,
)
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.logical import two_trees
from repro.topology.tree_search import search_degraded_pair

FAST = SpinConfig(timeout=20.0)


def interpreted_span(plan, fn, iterations, *, elems=256, lr=0.02):
    """Run ``iterations`` SGD steps of ``fn`` on one interpreter of
    ``plan``, stepping each rank's replica as every elastic span does;
    returns the final weights and the per-iteration checksums."""
    interpreter = PlanInterpreter(plan, total_elems=elems, spin=FAST)
    checksums = []

    def step(grads, weights):
        outputs = interpreter.run(grads, in_place=True).outputs
        return [weights - lr * out for out in outputs]

    weights = sgd_span(
        step, fn, np.zeros(elems), range(iterations),
        nnodes=plan.nnodes, checksums=checksums,
    )
    return weights, checksums


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
        fault_plan=FaultPlan.jitter(chaos) if chaos else None,
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
        assert len(result.weight_checksums) == 3

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
            fault_plan=FaultPlan.jitter(1e-3, 7),
        )
        report = runtime.run(
            [rng.normal(size=net.total_params) for _ in range(8)]
        )
        for times in report.enqueue_times.values():
            assert times == sorted(times)

    def test_negative_chaos_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            FaultPlan.jitter(-1.0)


# -- gradient memory ownership -------------------------------------------


def _kept_gradients(rng, n, kind):
    """(gradient_fn, arrays it must not write, snapshots of them).

    ``stored`` returns the caller's own array every call; ``view``
    returns a row view of a matrix the caller keeps: a fresh object
    nothing else refers to, which does not own its data.
    """
    fixed = [rng.normal(size=n) for _ in range(8)]
    if kind == "stored":
        fn, kept = (lambda w, g, i: fixed[g]), fixed
    else:
        matrix = np.stack(fixed)
        fn, kept = (lambda w, g, i: matrix[g]), [matrix]
    return fn, kept, [a.copy() for a in kept]


OWNERSHIP_KINDS = ("stored", "view")


class TestGradientOwnership:
    """Trainers hand a gradient over as device memory only when nothing
    else can see it; every other gradient is copied first."""

    def test_private_gradient_takes_only_unshared_arrays(self):
        fixed = np.ones(8)
        matrix = np.ones((2, 8))
        ids = []

        def fresh():
            out = fixed * 2.0
            ids.append(id(out))
            return out

        # Outside the assert: pytest's rewriting keeps a reference to
        # every intermediate of an assert statement.
        taken = private_gradient(fresh())
        assert id(taken) == ids[0]
        assert private_gradient(fixed) is not fixed
        row = private_gradient(matrix[0])
        assert row.base is None and np.array_equal(row, matrix[0])
        as_f32 = private_gradient(np.ones(8, dtype=np.float32))
        assert as_f32.dtype == np.float64
        reversed_view = private_gradient(fixed[::-1])
        assert reversed_view.flags.c_contiguous
        read_only = np.ones(8)
        read_only.flags.writeable = False
        assert private_gradient(read_only) is not read_only
        cache = weakref.WeakValueDictionary()

        def cached():
            out = fixed * 3.0
            cache["g"] = out
            ids.append(id(out))
            return out

        taken = private_gradient(cached())
        assert id(taken) != ids[-1]

    def test_trainers_hand_fresh_gradients_over(self, rng, monkeypatch):
        """A gradient nothing else holds becomes the GPU's buffer."""
        made: list[int] = []
        handed: list[int] = []

        def fn(w, g, i):
            out = w + float(g)
            made.append(id(out))
            return out

        def spy(engine):
            original = engine.run

            def run(self, inputs, *args, **kwargs):
                assert kwargs.get("in_place") is True
                report = original(self, inputs, *args, **kwargs)
                handed.extend(id(out) for out in report.outputs)
                return report

            monkeypatch.setattr(engine, "run", run)

        spy(TreeAllReduceRuntime)
        spy(PlanInterpreter)
        net, runtime, _ = make_setup(rng)
        FunctionalTrainer(runtime, net, fn).train(
            np.zeros(net.total_params), iterations=1
        )
        assert handed == made and len(made) == 8
        made.clear()
        handed.clear()
        embedding = search_degraded_pair(
            dgx1_topology(), (1, 2, 3, 4),
            detour_preference=DETOUR_NODES, synth_fallback=True,
        )
        interpreted_span(embedding.plan, fn, 1)
        assert handed == made and len(made) == 4

    @pytest.mark.parametrize("kind", OWNERSHIP_KINDS)
    def test_functional_trainer_leaves_kept_gradients(self, rng, kind):
        net, runtime, _ = make_setup(rng)
        fn, kept, before = _kept_gradients(rng, net.total_params, kind)
        w0 = rng.normal(size=net.total_params)
        result = FunctionalTrainer(runtime, net, fn).train(
            w0.copy(), iterations=2
        )
        for array, snapshot in zip(kept, before):
            assert np.array_equal(array, snapshot)
        reference = serial_reference(
            net, fn, w0.copy(), nnodes=8, iterations=2,
            learning_rate=0.05,
            reduce_order=tree_reduce_order(runtime.trees, runtime.layout),
        )
        assert np.array_equal(result.weights, reference)

    @pytest.mark.parametrize("kind", OWNERSHIP_KINDS)
    def test_interpreted_segment_leaves_kept_gradients(self, rng, kind):
        embedding = search_degraded_pair(
            dgx1_topology(), (1, 2, 3, 4),
            detour_preference=DETOUR_NODES, synth_fallback=True,
        )
        fn, kept, before = _kept_gradients(rng, 256, kind)
        _, checksums = interpreted_span(embedding.plan, fn, 2)
        assert len(checksums) == 2
        for array, snapshot in zip(kept, before):
            assert np.array_equal(array, snapshot)

    @pytest.mark.parametrize("kind", OWNERSHIP_KINDS)
    def test_elastic_trainer_leaves_kept_gradients(self, rng, kind):
        net = NetworkModel(
            name="own", layers=(LayerSpec("L0", 256, 1e6),)
        )
        fn, kept, before = _kept_gradients(rng, 256, kind)
        trainer = ElasticTrainer(
            dgx1_topology(), net, fn,
            trees=dgx1_trees(),
            detour_map=DETOURED_EDGES,
            learning_rate=0.02,
            policy=RecoveryPolicy(mode=REEMBED),
            spin=FAST,
            detour_preference=DETOUR_NODES,
        )
        w0 = rng.normal(size=256)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(
                MembershipEvent("crash", 3, 1, 0),
                MembershipEvent("join", 3, 2),
            ),
        )
        for array, snapshot in zip(kept, before):
            assert np.array_equal(array, snapshot)
        expected = elastic_serial_reference(
            net, fn, w0.copy(),
            segments=report.segments,
            layout=trainer.layout,
            iterations=3,
            learning_rate=0.02,
        )
        assert np.array_equal(report.weights, expected)

    def test_engines_copy_their_inputs_by_default(self, rng):
        net, runtime, _ = make_setup(rng)
        n = net.total_params

        def check(run):
            inputs = [rng.normal(size=n) for _ in range(8)]
            before = [a.copy() for a in inputs]
            outputs = run(inputs)
            for a, b, out in zip(inputs, before, outputs):
                assert np.array_equal(a, b)
                assert out is not a

        check(lambda xs: runtime.run(xs).outputs)
        chained = ChainedTrainingRuntime(runtime, net)
        check(lambda xs: chained.run(xs).report.outputs)
        plan = build_plan("double_tree", 8, n * 8, nchunks=4)
        interp = PlanInterpreter(plan, total_elems=n, spin=FAST)
        check(lambda xs: interp.run(xs).outputs)

    def test_in_place_reduces_into_the_inputs(self, rng):
        net, runtime, _ = make_setup(rng)
        n = net.total_params
        inputs = [rng.normal(size=n) for _ in range(8)]
        expected = runtime.run(inputs).outputs
        plan = build_plan("double_tree", 8, n * 8, nchunks=4)
        for run in (
            lambda xs: runtime.run(xs, in_place=True).outputs,
            lambda xs: PlanInterpreter(plan, total_elems=n, spin=FAST)
            .run(xs, in_place=True).outputs,
        ):
            handed = [a.copy() for a in inputs]
            outputs = run(handed)
            for out, own in zip(outputs, handed):
                assert out is own
                assert np.array_equal(out, outputs[0])
        for a, b in zip(runtime.run(inputs, in_place=True).outputs,
                        expected):
            assert np.array_equal(a, b)

    def test_in_place_rejects_arrays_it_cannot_own(self, rng):
        net, runtime, _ = make_setup(rng)
        n = net.total_params
        with pytest.raises(ConfigError, match="in-place"):
            runtime.run(
                [np.ones(n, dtype=np.float32) for _ in range(8)],
                in_place=True,
            )


def _bytes_held(run) -> int:
    """Traced bytes freed when ``run``'s result is dropped."""
    tracemalloc.start()
    try:
        result = run()
        held, _ = tracemalloc.get_traced_memory()
        del result
        gc.collect()
        remaining, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - remaining


@pytest.mark.no_sanitize  # measures memory
class TestReportMemory:
    """A training result keeps the final weights and one CRC32 per
    iteration, so its size does not grow by a weight vector per
    iteration."""

    ELEMS = 4 * 4096

    def _net(self) -> NetworkModel:
        return NetworkModel(name="mem", layers=tuple(
            LayerSpec(name=f"L{i}", params=self.ELEMS // 4, fwd_flops=1e6)
            for i in range(4)
        ))

    def test_functional_result_is_constant_in_iterations(self, rng):
        net = self._net()
        runtime = TreeAllReduceRuntime(
            dgx1_trees(), total_elems=self.ELEMS, chunks_per_tree=4,
            detour_map=DETOURED_EDGES, spin=FAST,
        )
        targets = [rng.normal(size=self.ELEMS) for _ in range(8)]
        trainer = FunctionalTrainer(runtime, net, quadratic_gradient(targets))
        w0 = rng.normal(size=self.ELEMS)
        trainer.train(w0, iterations=1)  # warm caches

        def held(iterations: int) -> int:
            return _bytes_held(
                lambda: trainer.train(w0, iterations=iterations)
            )

        short, long = held(4), held(16)
        assert short >= self.ELEMS * 8  # the final weights
        assert long - short < self.ELEMS * 8

    def test_elastic_report_is_constant_in_iterations(self, rng):
        targets = [rng.normal(size=self.ELEMS) for _ in range(8)]
        w0 = rng.normal(size=self.ELEMS)

        def held(iterations: int) -> int:
            trainer = ElasticTrainer(
                dgx1_topology(), self._net(), quadratic_gradient(targets),
                trees=dgx1_trees(),
                detour_map=DETOURED_EDGES,
                learning_rate=0.02,
                policy=RecoveryPolicy(mode=RESTART),
                spin=FAST,
                detour_preference=DETOUR_NODES,
                checkpointer=Checkpointer(MemoryBackend()),
                checkpoint_every=2,
            )
            # Crash at 3 restores generation 2 and redoes iteration 2
            # on the survivors; the crashed GPU rejoins at 3.
            events = (
                MembershipEvent("crash", 3, 3),
                MembershipEvent("join", 3, 3),
            )
            trainer.train(w0, iterations=4, events=events)  # warm caches

            def run():
                report = trainer.train(
                    w0, iterations=iterations, events=events
                )
                assert report.records[0].restored_generation >= 0
                assert report.members == tuple(range(8))
                return report

            return _bytes_held(run)

        short, long = held(4), held(16)
        assert short >= self.ELEMS * 8  # the final weights
        assert long - short < self.ELEMS * 8
