"""Tests for the functional (thread-backed) tree AllReduce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.sync import SpinConfig
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.logical import balanced_binary_tree, two_trees

FAST = SpinConfig(timeout=15.0)


def run_allreduce(trees, inputs, *, chunks=4, overlapped=True, detours=None):
    runtime = TreeAllReduceRuntime(
        trees,
        total_elems=len(inputs[0]),
        chunks_per_tree=chunks,
        overlapped=overlapped,
        detour_map=detours,
        spin=FAST,
    )
    return runtime.run([np.asarray(a, dtype=np.float64) for a in inputs])


class TestNumericalCorrectness:
    @pytest.mark.parametrize("overlapped", [False, True])
    def test_single_tree_sum(self, rng, overlapped):
        inputs = [rng.normal(size=256) for _ in range(4)]
        report = run_allreduce(
            (balanced_binary_tree(4),), inputs, overlapped=overlapped
        )
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("overlapped", [False, True])
    def test_double_tree_sum(self, rng, overlapped):
        inputs = [rng.normal(size=512) for _ in range(8)]
        report = run_allreduce(two_trees(8), inputs, overlapped=overlapped)
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_dgx1_trees_with_detours(self, rng):
        inputs = [rng.normal(size=512) for _ in range(8)]
        report = run_allreduce(
            dgx1_trees(), inputs, detours=DETOURED_EDGES
        )
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    @given(
        nnodes=st.sampled_from([2, 3, 5, 8]),
        chunks=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_random_configs(self, nnodes, chunks, seed):
        rng = np.random.default_rng(seed)
        size = max(nnodes * chunks * 2, 32)
        inputs = [rng.normal(size=size) for _ in range(nnodes)]
        report = run_allreduce(
            (balanced_binary_tree(nnodes),), inputs, chunks=chunks
        )
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            # Tree reduction order differs from np.sum's left fold: allow
            # an absolute tolerance for near-zero sums (1-ulp effects).
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


class TestAccuracyNeutrality:
    def test_overlap_is_bit_identical_to_baseline(self, rng):
        """The paper's accuracy claim: overlap changes timing, not math.
        Same trees, same chunking => bit-identical floating-point sums."""
        inputs = [rng.normal(size=512) for _ in range(8)]
        over = run_allreduce(
            dgx1_trees(), [a.copy() for a in inputs],
            detours=DETOURED_EDGES, overlapped=True,
        )
        base = run_allreduce(
            dgx1_trees(), [a.copy() for a in inputs],
            detours=DETOURED_EDGES, overlapped=False,
        )
        for a, b in zip(over.outputs, base.outputs):
            assert np.array_equal(a, b)

    def test_repeated_runs_bit_identical(self, rng):
        inputs = [rng.normal(size=256) for _ in range(8)]
        r1 = run_allreduce(two_trees(8), [a.copy() for a in inputs])
        r2 = run_allreduce(two_trees(8), [a.copy() for a in inputs])
        for a, b in zip(r1.outputs, r2.outputs):
            assert np.array_equal(a, b)


class TestEnqueueStream:
    def test_every_gpu_enqueues_every_chunk(self, rng):
        inputs = [rng.normal(size=256) for _ in range(8)]
        report = run_allreduce(two_trees(8), inputs, chunks=4)
        for gpu in range(8):
            for tree in range(2):
                assert len(report.enqueue_times[(gpu, tree)]) == 4

    def test_enqueue_timestamps_monotonic(self, rng):
        """Chunks are enqueued in order on each (gpu, tree) stream —
        Observation #3 realized in the runtime."""
        inputs = [rng.normal(size=256) for _ in range(8)]
        report = run_allreduce(two_trees(8), inputs, chunks=4)
        for times in report.enqueue_times.values():
            assert times == sorted(times)


class TestValidation:
    def test_wrong_input_count(self, rng):
        runtime = TreeAllReduceRuntime(
            (balanced_binary_tree(4),), total_elems=64,
            chunks_per_tree=2, spin=FAST,
        )
        with pytest.raises(ConfigError, match="expected 4"):
            runtime.run([np.zeros(64)] * 3)

    def test_wrong_input_size(self):
        runtime = TreeAllReduceRuntime(
            (balanced_binary_tree(4),), total_elems=64,
            chunks_per_tree=2, spin=FAST,
        )
        with pytest.raises(ConfigError, match="layout size"):
            runtime.run([np.zeros(32)] * 4)

    def test_sparse_node_ids_rejected(self):
        from repro.topology.logical import BinaryTree

        tree = BinaryTree(root=0, parent={2: 0}, children={0: (2,), 2: ()})
        with pytest.raises(ConfigError, match="dense"):
            TreeAllReduceRuntime((tree,), total_elems=8, chunks_per_tree=1)

    def test_mismatched_tree_spans_rejected(self):
        with pytest.raises(ConfigError, match="same GPUs"):
            TreeAllReduceRuntime(
                (balanced_binary_tree(4), balanced_binary_tree(8)),
                total_elems=64,
                chunks_per_tree=2,
            )

    def test_no_trees_rejected(self):
        with pytest.raises(ConfigError):
            TreeAllReduceRuntime((), total_elems=8, chunks_per_tree=1)
