"""Plan-interpreted AllReduce, the only engine for ring and
halving-doubling: bit-exactness against the tree runtime and the serial
plan replay, numerical correctness, the ring's per-rank chunk order
(Observation #3), halving-doubling's scattered ownership, validation,
and fault-plan behaviour of the interpreter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AbortedError, ConfigError
from repro.collectives.ring import DGX1_RING_ORDER
from repro.plan import (
    PlanInterpreter,
    build_double_tree_plan,
    build_halving_doubling_plan,
    build_ring_plan,
    build_tree_plan,
    compile_plan,
    plan_reduce_order,
)
from repro.plan.ir import RECV, REDUCE
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.faults import FaultPlan, GpuFault
from repro.runtime.sync import SpinConfig
from repro.runtime.training import tree_reduce_order
from repro.sim.dag import Phase
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.logical import balanced_binary_tree, two_trees
from repro.topology.routing import Router

FAST = SpinConfig(timeout=15.0)
E = 64
N = float(E * 8)


def random_inputs(rng, nnodes=8, elems=E):
    return [rng.normal(size=elems) * 10 for _ in range(nnodes)]


def interpret(plan, inputs, **kwargs):
    interp = PlanInterpreter(
        plan, total_elems=len(inputs[0]), spin=FAST, **kwargs
    )
    return interp.run([a.copy() for a in inputs])


def assert_bit_identical(lhs, rhs):
    for a, b in zip(lhs, rhs):
        assert np.array_equal(a, b)


def assert_all_hold_sum(outputs, inputs):
    expected = np.sum(inputs, axis=0)
    for out in outputs:
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def final_write_order(plan, rank):
    """Chunk ids in the order ``rank``'s thread-block-0 program last
    writes them (REDUCE or RECV).  The interpreter runs each program on
    one thread in op order, so for the ring this is the order the fully
    reduced chunks land at ``rank``."""
    last: dict[int, int] = {}
    program = [op for op in plan.ops if (op.rank, op.tb) == (rank, 0)]
    for pos, op in enumerate(program):
        if op.kind in (REDUCE, RECV):
            for c in op.chunks_carried():
                last[c] = pos
    return sorted(last, key=last.get)


class TestBitExactness:
    @pytest.mark.parametrize("overlapped", [False, True])
    def test_tree_matches_runtime(self, rng, overlapped):
        inputs = random_inputs(rng)
        tree = balanced_binary_tree(8)
        plan = build_tree_plan(8, N, nchunks=4, overlapped=overlapped)
        runtime = TreeAllReduceRuntime(
            (tree,),
            total_elems=E,
            chunks_per_tree=4,
            overlapped=overlapped,
            spin=FAST,
        )
        expected = runtime.run([a.copy() for a in inputs]).outputs
        got = interpret(plan, inputs).outputs
        assert_bit_identical(got, expected)

    def test_double_tree_matches_runtime(self, rng):
        inputs = random_inputs(rng)
        trees = two_trees(8)
        plan = build_double_tree_plan(
            8, N, nchunks=4, trees=trees, overlapped=True
        )
        runtime = TreeAllReduceRuntime(
            trees,
            total_elems=E,
            chunks_per_tree=4,
            overlapped=True,
            spin=FAST,
        )
        expected = runtime.run([a.copy() for a in inputs]).outputs
        got = interpret(plan, inputs).outputs
        assert_bit_identical(got, expected)

    def test_double_tree_matches_serial_reduce_order(self, rng):
        inputs = random_inputs(rng)
        trees = two_trees(8)
        plan = build_double_tree_plan(
            8, N, nchunks=4, trees=trees, overlapped=True
        )
        report = interpret(plan, inputs)
        reference = tree_reduce_order(trees, report.layout)(inputs)
        for out in report.outputs:
            assert np.array_equal(out, reference)

    def test_dgx1_detoured_runtime_matches_raw_plan(self, rng):
        # The hand-written runtime's physical detours are bit-transparent,
        # so the raw logical plan must match it exactly.
        inputs = random_inputs(rng)
        trees = dgx1_trees()
        plan = build_double_tree_plan(
            8, N, nchunks=4, trees=trees, overlapped=True
        )
        runtime = TreeAllReduceRuntime(
            trees,
            total_elems=E,
            chunks_per_tree=4,
            overlapped=True,
            detour_map=dict(DETOURED_EDGES),
            spin=FAST,
        )
        expected = runtime.run([a.copy() for a in inputs]).outputs
        got = interpret(plan, inputs).outputs
        assert_bit_identical(got, expected)

    def test_ring_matches_runtime(self, rng):
        inputs = random_inputs(rng)
        plan = build_ring_plan(8, N, order=list(DGX1_RING_ORDER))
        reference = plan_reduce_order(plan, total_elems=E)(inputs)
        for out in interpret(plan, inputs).outputs:
            assert np.array_equal(out, reference)

    @pytest.mark.parametrize("nnodes", [2, 4, 8])
    def test_halving_doubling_matches_runtime(self, rng, nnodes):
        inputs = random_inputs(rng, nnodes=nnodes, elems=nnodes * 8)
        plan = build_halving_doubling_plan(nnodes, float(nnodes * 64))
        reference = plan_reduce_order(plan, total_elems=nnodes * 8)(inputs)
        for out in interpret(plan, inputs).outputs:
            assert np.array_equal(out, reference)


class TestRingCorrectness:
    @pytest.mark.parametrize("nnodes", [2, 3, 4, 8])
    def test_every_gpu_gets_the_sum(self, rng, nnodes):
        inputs = [rng.normal(size=nnodes * 16) for _ in range(nnodes)]
        plan = build_ring_plan(nnodes, nnodes * 128.0)
        assert_all_hold_sum(interpret(plan, inputs).outputs, inputs)

    def test_dgx1_ring_order(self, rng):
        inputs = [rng.normal(size=64) for _ in range(8)]
        plan = build_ring_plan(8, 512.0, order=list(DGX1_RING_ORDER))
        assert_all_hold_sum(interpret(plan, inputs).outputs, inputs)

    @given(
        nnodes=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=8, deadline=None)
    def test_property_random_inputs(self, nnodes, seed):
        rng = np.random.default_rng(seed)
        inputs = [rng.normal(size=nnodes * 8) for _ in range(nnodes)]
        plan = build_ring_plan(nnodes, nnodes * 64.0)
        assert_all_hold_sum(interpret(plan, inputs).outputs, inputs)

    def test_deterministic_bitwise(self, rng):
        inputs = [rng.normal(size=64) for _ in range(8)]
        plan = build_ring_plan(8, 512.0)
        assert_bit_identical(
            interpret(plan, inputs).outputs, interpret(plan, inputs).outputs
        )


class TestHalvingDoublingCorrectness:
    @pytest.mark.parametrize("nnodes", [2, 4, 8, 16])
    def test_every_gpu_gets_the_sum(self, rng, nnodes):
        inputs = [rng.normal(size=nnodes * 8) for _ in range(nnodes)]
        plan = build_halving_doubling_plan(nnodes, nnodes * 64.0)
        assert_all_hold_sum(interpret(plan, inputs).outputs, inputs)

    @given(
        power=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=8, deadline=None)
    def test_property_random_inputs(self, power, seed):
        nnodes = 2**power
        rng = np.random.default_rng(seed)
        inputs = [rng.normal(size=nnodes * 4) for _ in range(nnodes)]
        plan = build_halving_doubling_plan(nnodes, nnodes * 32.0)
        assert_all_hold_sum(interpret(plan, inputs).outputs, inputs)

    def test_deterministic_bitwise(self, rng):
        inputs = [rng.normal(size=64) for _ in range(8)]
        plan = build_halving_doubling_plan(8, 512.0)
        assert_bit_identical(
            interpret(plan, inputs).outputs, interpret(plan, inputs).outputs
        )


class TestOrderingContrast:
    """Observation #3: the ring preserves no global chunk order."""

    def test_each_gpu_completes_all_chunks(self):
        plan = build_ring_plan(8, 512.0)
        for rank in range(8):
            assert sorted(final_write_order(plan, rank)) == list(range(8))

    def test_completion_orders_differ_across_gpus(self):
        plan = build_ring_plan(8, 512.0)
        orders = {tuple(final_write_order(plan, r)) for r in range(8)}
        # Every GPU sees a different rotation — no single global order.
        assert len(orders) == 8

    def test_orders_are_rotations_not_sorted(self):
        plan = build_ring_plan(8, 512.0)
        orders = [final_write_order(plan, r) for r in range(8)]
        # At most one GPU (the one owning chunk 0 first) sees an
        # ascending order; the rest cannot.
        assert sum(order == sorted(order) for order in orders) <= 1

    def test_all_rotations_distinct_at_16(self):
        plan = build_ring_plan(16, 16 * 32.0)
        orders = {tuple(final_write_order(plan, r)) for r in range(16)}
        assert len(orders) == 16


class TestScatteredOwnership:
    """After reduce-scatter each rank owns exactly one distinct chunk."""

    @staticmethod
    def owned_after_reduce_scatter(plan, rank):
        reduces = [
            op for op in plan.ops
            if (op.rank, op.tb) == (rank, 0)
            and op.kind == REDUCE and op.phase == Phase.REDUCE_SCATTER
        ]
        return reduces[-1].chunks_carried()

    def test_ownership_is_a_permutation(self):
        plan = build_halving_doubling_plan(8, 512.0)
        owned = [self.owned_after_reduce_scatter(plan, r) for r in range(8)]
        assert sorted(owned) == [(c,) for c in range(8)]

    def test_rank_keeps_chunks_matching_its_bits(self):
        # Rank r ends reduce-scatter owning the chunk whose index bits
        # equal r's bits (keep rule: chunk bit == rank bit per step).
        plan = build_halving_doubling_plan(8, 512.0)
        for rank in range(8):
            assert self.owned_after_reduce_scatter(plan, rank) == (rank,)


class TestLegalizedExecution:
    def test_legalized_plan_bit_identical_to_raw(self, rng):
        # Route legalization (detour relays through GPU 0) must not
        # change a single bit of the result.
        inputs = random_inputs(rng)
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        plan = build_double_tree_plan(
            8, N, nchunks=4, trees=dgx1_trees(), overlapped=True
        )
        legal, _ = compile_plan(plan, topo, router=router)
        raw = interpret(plan, inputs).outputs
        got = interpret(legal, inputs).outputs
        assert_bit_identical(got, raw)

    def test_pipelined_plan_correct(self, rng):
        inputs = random_inputs(rng, elems=2 * E)
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        plan = build_double_tree_plan(
            8, N, nchunks=4, trees=dgx1_trees(), overlapped=True
        )
        pipe, _ = compile_plan(plan, topo, router=router, pipeline=2)
        report = interpret(pipe, inputs)
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestFaults:
    def test_injected_crash_aborts(self, rng):
        inputs = random_inputs(rng)
        plan = build_tree_plan(8, N, nchunks=4)
        faults = FaultPlan(gpu_faults=[
            GpuFault(gpu=3, kind="crash", after_chunk=1)
        ])
        with pytest.raises(AbortedError):
            interpret(plan, inputs, fault_plan=faults)
        assert faults.stats.snapshot().get("crashes") == 1

    def test_straggler_still_correct(self, rng):
        inputs = random_inputs(rng)
        plan = build_tree_plan(8, N, nchunks=2)
        faults = FaultPlan(gpu_faults=[
            GpuFault(gpu=5, kind="straggler", delay=0.002)
        ])
        report = interpret(plan, inputs, fault_plan=faults)
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestValidation:
    def test_wrong_input_count(self):
        plan = build_ring_plan(4, 256.0)
        with pytest.raises(ConfigError):
            PlanInterpreter(plan, total_elems=16, spin=FAST).run(
                [np.zeros(16)] * 3
            )

    def test_needs_layout_or_elems(self):
        plan = build_ring_plan(4, 256.0)
        with pytest.raises(ConfigError):
            PlanInterpreter(plan)

    @pytest.mark.parametrize(
        "build", [build_ring_plan, build_halving_doubling_plan]
    )
    def test_too_few_nodes(self, build):
        with pytest.raises(ConfigError):
            build(1, 64.0)

    def test_ring_bad_order(self):
        with pytest.raises(ConfigError):
            build_ring_plan(4, 128.0, order=[0, 1, 2, 2])

    def test_hd_non_power_of_two(self):
        with pytest.raises(ConfigError):
            build_halving_doubling_plan(6, 384.0)
