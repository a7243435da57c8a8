"""Tests for tree AllReduce: baseline and overlapped (C1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.collectives.base import simulate_on_fabric
from repro.collectives.tree import tree_allreduce
from repro.collectives.verification import (
    check_allreduce,
    check_allreduce_simulated,
    delivers_in_order,
)
from repro.sim.dag import Phase
from repro.topology.switch import FabricSpec


def fabric_for(n, alpha=1e-6, beta=1e-9):
    return FabricSpec(nnodes=n, alpha=alpha, beta=beta)


class TestScheduleShape:
    def test_chunk_count(self):
        schedule = tree_allreduce(8, 8000.0, nchunks=4)
        assert schedule.nchunks == 4

    def test_reduce_ops_per_chunk(self):
        schedule = tree_allreduce(8, 8000.0, nchunks=2)
        ups = [
            op for op in schedule.dag
            if op.phase is Phase.REDUCE and op.chunk == 0
        ]
        # 7 up transfers + 1 root marker per chunk.
        transfers = [op for op in ups if op.src != op.dst]
        assert len(transfers) == 7

    def test_broadcast_ops_per_chunk(self):
        schedule = tree_allreduce(8, 8000.0, nchunks=2)
        downs = [
            op for op in schedule.dag
            if op.phase is Phase.BROADCAST and op.chunk == 1
        ]
        assert len(downs) == 7

    def test_labels_name_each_op(self):
        schedule = tree_allreduce(4, 400.0, nchunks=1)
        assert [op.label for op in schedule.dag] == [
            "up c0 3->2", "up c0 2->1", "up c0 0->1", "reduced c0@1",
            "phase barrier t0", "down c0 1->0", "down c0 1->2",
            "down c0 2->3",
        ]
        # Stored as templates: no label string is kept per op.
        assert schedule.dag.labels == {}

    def test_overlapped_flag(self):
        assert tree_allreduce(4, 100.0, nchunks=1, overlapped=True).overlapped
        assert not tree_allreduce(4, 100.0, nchunks=1).overlapped

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            tree_allreduce(1, 100.0, nchunks=1)
        with pytest.raises(ConfigError):
            tree_allreduce(4, 100.0, nchunks=0)


class TestCorrectness:
    @given(
        n=st.integers(min_value=2, max_value=16),
        k=st.integers(min_value=1, max_value=6),
        overlapped=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_symbolic_allreduce(self, n, k, overlapped):
        schedule = tree_allreduce(
            n, float(n * k * 10), nchunks=k, overlapped=overlapped
        )
        check_allreduce(schedule)

    @pytest.mark.parametrize("overlapped", [False, True])
    def test_simulated_order_correct(self, overlapped):
        schedule = tree_allreduce(
            8, 80_000.0, nchunks=8, overlapped=overlapped
        )
        outcome = simulate_on_fabric(schedule, fabric_for(8))
        check_allreduce_simulated(outcome)


class TestOverlapTiming:
    def test_overlap_never_slower(self):
        for n in (2, 4, 8, 16):
            for k in (1, 4, 16):
                base = simulate_on_fabric(
                    tree_allreduce(n, 1e6, nchunks=k), fabric_for(n)
                )
                over = simulate_on_fabric(
                    tree_allreduce(n, 1e6, nchunks=k, overlapped=True),
                    fabric_for(n)
                )
                assert over.total_time <= base.total_time + 1e-12

    def test_overlap_approaches_2x_for_many_chunks(self):
        n, k = 8, 128
        base = simulate_on_fabric(
            tree_allreduce(n, 64e6, nchunks=k), fabric_for(n)
        )
        over = simulate_on_fabric(
            tree_allreduce(n, 64e6, nchunks=k, overlapped=True), fabric_for(n)
        )
        assert base.total_time / over.total_time > 1.7

    def test_single_chunk_no_benefit(self):
        # With one chunk there is nothing to overlap.
        base = simulate_on_fabric(
            tree_allreduce(8, 1e6, nchunks=1), fabric_for(8)
        )
        over = simulate_on_fabric(
            tree_allreduce(8, 1e6, nchunks=1, overlapped=True), fabric_for(8)
        )
        assert over.total_time == pytest.approx(base.total_time)

    def test_turnaround_improves_dramatically(self):
        """Paper Fig. 7: the first chunk of the overlapped tree turns
        around after one up+down traversal instead of waiting for the
        whole reduction phase."""
        n, k = 8, 64
        base = simulate_on_fabric(
            tree_allreduce(n, 64e6, nchunks=k), fabric_for(n)
        )
        over = simulate_on_fabric(
            tree_allreduce(n, 64e6, nchunks=k, overlapped=True), fabric_for(n)
        )
        assert base.turnaround / over.turnaround > 5.0


class TestPhaseStructure:
    def test_baseline_broadcast_starts_after_all_reduction(self):
        schedule = tree_allreduce(8, 8e5, nchunks=8, overlapped=False)
        outcome = simulate_on_fabric(schedule, fabric_for(8))
        last_reduce = max(
            outcome.logical_finish[op.op_id]
            for op in schedule.dag.ops
            if op.phase is Phase.REDUCE
        )
        first_broadcast = min(
            outcome.sim.start[op.op_id]
            for op in schedule.dag.ops
            if op.phase is Phase.BROADCAST
        )
        assert first_broadcast >= last_reduce - 1e-12

    def test_overlapped_broadcast_starts_during_reduction(self):
        schedule = tree_allreduce(8, 8e5, nchunks=8, overlapped=True)
        outcome = simulate_on_fabric(schedule, fabric_for(8))
        last_reduce = max(
            outcome.logical_finish[op.op_id]
            for op in schedule.dag.ops
            if op.phase is Phase.REDUCE
        )
        first_broadcast = min(
            outcome.sim.start[op.op_id]
            for op in schedule.dag.ops
            if op.phase is Phase.BROADCAST
        )
        assert first_broadcast < last_reduce

    def test_uplinks_and_downlinks_are_disjoint_channels(self):
        """Observation #2: reduction uses only uplinks, broadcast only
        downlinks — distinct unidirectional channels."""
        schedule = tree_allreduce(8, 8e5, nchunks=4, overlapped=True)
        up_edges = {
            op.resource for op in schedule.dag.ops
            if op.phase is Phase.REDUCE and op.src != op.dst
        }
        down_edges = {
            op.resource for op in schedule.dag.ops
            if op.phase is Phase.BROADCAST
        }
        assert up_edges.isdisjoint(down_edges)

    def test_downlinks_idle_during_pure_reduction_window(self):
        """In the baseline, every downlink is idle until the barrier."""
        schedule = tree_allreduce(8, 8e5, nchunks=4, overlapped=False)
        outcome = simulate_on_fabric(schedule, fabric_for(8))
        barrier_time = max(
            outcome.logical_finish[op.op_id]
            for op in schedule.dag.ops
            if op.phase is Phase.REDUCE
        )
        down_edges = {
            op.resource for op in schedule.dag.ops
            if op.phase is Phase.BROADCAST
        }
        for rec in outcome.sim.trace:
            if rec.resource in down_edges:
                assert rec.start >= barrier_time - 1e-12


class TestOrdering:
    @pytest.mark.parametrize("overlapped", [False, True])
    def test_tree_delivers_in_order(self, overlapped):
        """Observation #3: tree chunks arrive in order at every node —
        what makes gradient queuing possible."""
        schedule = tree_allreduce(
            8, 8e5, nchunks=8, overlapped=overlapped
        )
        outcome = simulate_on_fabric(schedule, fabric_for(8))
        assert delivers_in_order(outcome)
