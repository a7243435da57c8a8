"""Tests for the plan builders: every builder emits a verifiable plan."""

import pytest

from repro.errors import ConfigError
from repro.plan import (
    BUILDERS,
    REDUCE,
    SEND,
    build_double_tree_plan,
    build_halving_doubling_plan,
    build_plan,
    build_ring_plan,
    build_tree_plan,
    verify_plan,
)
from repro.collectives.ring import DGX1_RING_ORDER
from repro.topology.dgx1_trees import dgx1_trees

N = 4096.0


class TestBuildersVerify:
    @pytest.mark.parametrize("nnodes", [2, 3, 5, 8])
    def test_ring(self, nnodes):
        plan = build_ring_plan(nnodes, N, order=None)
        assert verify_plan(plan).ok

    def test_ring_dgx1_order_two_rings(self):
        plan = build_ring_plan(8, N, order=list(DGX1_RING_ORDER), nrings=2)
        assert verify_plan(plan).ok

    @pytest.mark.parametrize("nnodes", [2, 4, 7, 8])
    @pytest.mark.parametrize("overlapped", [False, True])
    def test_tree(self, nnodes, overlapped):
        plan = build_tree_plan(nnodes, N, nchunks=4, overlapped=overlapped)
        assert verify_plan(plan).ok

    @pytest.mark.parametrize("overlapped", [False, True])
    def test_double_tree(self, overlapped):
        plan = build_double_tree_plan(8, N, nchunks=4, overlapped=overlapped)
        assert verify_plan(plan).ok
        assert plan.ntrees == 2
        assert plan.nchunks == 8

    def test_double_tree_dgx1_pair(self):
        plan = build_double_tree_plan(
            8, N, nchunks=4, trees=dgx1_trees(), overlapped=True
        )
        assert verify_plan(plan).ok

    @pytest.mark.parametrize("nnodes", [2, 4, 8, 16])
    def test_halving_doubling(self, nnodes):
        plan = build_halving_doubling_plan(nnodes, N)
        assert verify_plan(plan).ok

    def test_halving_doubling_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            build_halving_doubling_plan(6, N)


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(BUILDERS) == {
            "ring",
            "tree",
            "double_tree",
            "halving_doubling",
        }

    @pytest.mark.parametrize("algorithm", sorted(BUILDERS))
    def test_build_plan_dispatch(self, algorithm):
        kwargs = {} if algorithm in ("ring", "halving_doubling") else {
            "nchunks": 2
        }
        plan = build_plan(algorithm, 8, N, **kwargs)
        assert plan.algorithm == algorithm
        assert verify_plan(plan).ok

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            build_plan("mesh", 8, N)


class TestStructure:
    def test_chunk_bytes_cover_message(self):
        for algorithm in BUILDERS:
            kwargs = {} if algorithm in ("ring", "halving_doubling") else {
                "nchunks": 4
            }
            plan = build_plan(algorithm, 8, N, **kwargs)
            assert sum(plan.chunk_sizes) == pytest.approx(N)

    def test_tree_reduce_count(self):
        # A tree reduces each chunk exactly (P - 1) times globally.
        plan = build_tree_plan(8, N, nchunks=4)
        reduces = [op for op in plan.ops if op.kind == REDUCE]
        assert len(reduces) == 7 * 4

    def test_ring_send_count(self):
        # Classic ring: 2 (P - 1) steps, P sends per step.
        plan = build_ring_plan(8, N)
        sends = [op for op in plan.ops if op.kind == SEND]
        assert len(sends) == 2 * 7 * 8

    def test_programs_partition_ops(self):
        plan = build_double_tree_plan(8, N, nchunks=4, overlapped=True)
        seen = [i for ids in plan.program_ids().values() for i in ids]
        assert sorted(seen) == list(range(len(plan.ops)))

    def test_describe_mentions_algorithm(self):
        plan = build_ring_plan(4, N)
        assert "ring" in plan.describe()
