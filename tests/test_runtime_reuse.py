"""Runtime lifecycle tests: reuse, isolation, and report integrity."""

import numpy as np
import pytest

from repro.plan import PlanInterpreter, build_ring_plan
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.cluster import _Wire
from repro.runtime.sync import SpinConfig
from repro.topology.logical import two_trees

FAST = SpinConfig(timeout=15.0)


class TestRuntimeReuse:
    def test_tree_runtime_reusable_across_runs(self, rng):
        """run() builds fresh links/semaphores: back-to-back collectives
        on one runtime object must not interfere."""
        runtime = TreeAllReduceRuntime(
            two_trees(8), total_elems=256, chunks_per_tree=4, spin=FAST
        )
        for _ in range(3):
            inputs = [rng.normal(size=256) for _ in range(8)]
            report = runtime.run([a.copy() for a in inputs])
            expected = np.sum(inputs, axis=0)
            for out in report.outputs:
                np.testing.assert_allclose(out, expected, rtol=1e-12,
                                           atol=1e-12)

    def test_ring_runtime_reusable(self, rng):
        """One ring interpreter runs three collectives back to back."""
        interp = PlanInterpreter(
            build_ring_plan(4, 512.0), total_elems=64, spin=FAST
        )
        for _ in range(3):
            inputs = [rng.normal(size=64) for _ in range(4)]
            report = interp.run(inputs)
            expected = np.sum(inputs, axis=0)
            for out in report.outputs:
                np.testing.assert_allclose(out, expected, rtol=1e-12,
                                           atol=1e-12)

    def test_outputs_do_not_alias_inputs(self, rng):
        runtime = TreeAllReduceRuntime(
            two_trees(4), total_elems=64, chunks_per_tree=2, spin=FAST
        )
        inputs = [rng.normal(size=64) for _ in range(4)]
        report = runtime.run(inputs)
        before = report.outputs[0].copy()
        inputs[0][:] = 0.0  # mutating the caller's array changes nothing
        assert np.array_equal(report.outputs[0], before)

    def test_reports_are_independent_per_run(self, rng):
        runtime = TreeAllReduceRuntime(
            two_trees(4), total_elems=64, chunks_per_tree=2, spin=FAST
        )
        r1 = runtime.run([rng.normal(size=64) for _ in range(4)])
        r2 = runtime.run([rng.normal(size=64) for _ in range(4)])
        assert r1.enqueue_times is not r2.enqueue_times
        for key in r1.enqueue_times:
            assert len(r1.enqueue_times[key]) == 2
            assert len(r2.enqueue_times[key]) == 2


class TestReportIntegrity:
    def test_wall_time_positive(self, rng):
        runtime = TreeAllReduceRuntime(
            two_trees(4), total_elems=64, chunks_per_tree=2, spin=FAST
        )
        report = runtime.run([rng.normal(size=64) for _ in range(4)])
        assert report.wall_time > 0

    def test_layout_matches_configuration(self, rng):
        runtime = TreeAllReduceRuntime(
            two_trees(4), total_elems=100, chunks_per_tree=5, spin=FAST
        )
        report = runtime.run([rng.normal(size=100) for _ in range(4)])
        assert report.layout.nchunks == 10
        assert report.layout.total_elems == 100

    @pytest.mark.parametrize("capacity", [1, 2, 8])
    def test_bounded_receive_buffers_still_correct(
        self, rng, monkeypatch, capacity
    ):
        """Tight buffer capacities exercise post's flow control without
        changing results (the paper's finite receive buffers)."""
        depths = []
        init = _Wire.__init__

        def recording(wire, *args, capacity, **kwargs):
            depths.append(capacity)
            init(wire, *args, capacity=capacity, **kwargs)

        monkeypatch.setattr(_Wire, "__init__", recording)
        runtime = TreeAllReduceRuntime(
            two_trees(8), total_elems=256, chunks_per_tree=8,
            buffer_capacity=capacity, spin=FAST,
        )
        inputs = [rng.normal(size=256) for _ in range(8)]
        report = runtime.run([a.copy() for a in inputs])
        # Every wire carries its tree's 8 chunks through `capacity` slots.
        assert depths and set(depths) == {capacity}
        unbounded = TreeAllReduceRuntime(
            two_trees(8), total_elems=256, chunks_per_tree=8, spin=FAST,
        ).run([a.copy() for a in inputs])
        expected = np.sum(inputs, axis=0)
        for out, ref in zip(report.outputs, unbounded.outputs):
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
