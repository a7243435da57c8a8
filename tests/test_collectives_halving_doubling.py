"""Tests for the recursive halving-doubling AllReduce."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.collectives.base import simulate_on_fabric
from repro.collectives.halving_doubling import halving_doubling_allreduce
from repro.collectives.ring import ring_allreduce
from repro.collectives.tree import tree_allreduce
from repro.collectives.verification import (
    check_allreduce,
    check_allreduce_simulated,
    delivers_in_order,
)
from repro.topology.switch import FabricSpec


def fabric_for(n, alpha=1e-6, beta=1e-9):
    return FabricSpec(nnodes=n, alpha=alpha, beta=beta)


def halving_doubling_time(nnodes, nbytes, *, alpha, beta):
    """Analytical cost: ``2 log2(P) alpha + 2 ((P-1)/P) beta N``."""
    logp = nnodes.bit_length() - 1
    return 2.0 * logp * alpha + 2.0 * ((nnodes - 1) / nnodes) * beta * nbytes


class TestCorrectness:
    @given(logp=st.integers(min_value=1, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_symbolic_allreduce(self, logp):
        n = 1 << logp
        check_allreduce(halving_doubling_allreduce(n, float(n * 64)))

    def test_simulated_order_correct(self):
        schedule = halving_doubling_allreduce(8, 8e5)
        outcome = simulate_on_fabric(schedule, fabric_for(8))
        check_allreduce_simulated(outcome)

    def test_non_power_of_two_rejected(self):
        for bad in (3, 6, 12):
            with pytest.raises(ConfigError, match="power-of-two"):
                halving_doubling_allreduce(bad, 1000.0)

    def test_minimum_size(self):
        check_allreduce(halving_doubling_allreduce(2, 128.0))


class TestScheduleShape:
    def test_op_count_is_p_logp(self):
        # Every rank sends one aggregated message per step, two phases.
        schedule = halving_doubling_allreduce(8, 8000.0)
        assert len(schedule.dag) == 2 * 8 * 3

    def test_message_sizes_halve_during_reduce_scatter(self):
        schedule = halving_doubling_allreduce(8, 8000.0)
        from repro.sim.dag import Phase

        rs = [op for op in schedule.dag.ops
              if op.phase is Phase.REDUCE_SCATTER]
        sizes = sorted({op.nbytes for op in rs}, reverse=True)
        assert sizes == [4000.0, 2000.0, 1000.0]

    def test_chunk_sets_recorded(self):
        schedule = halving_doubling_allreduce(4, 4000.0)
        first = schedule.dag.ops[0]
        assert len(first.chunk_set) == 2  # half of 4 chunks


class TestTiming:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_analytical_model(self, n):
        nbytes = 1e6 * n
        schedule = halving_doubling_allreduce(n, nbytes)
        outcome = simulate_on_fabric(schedule, fabric_for(n))
        expected = halving_doubling_time(n, nbytes, alpha=1e-6, beta=1e-9)
        assert outcome.total_time == pytest.approx(expected, rel=1e-6)

    def test_beats_ring_latency_at_scale(self):
        n, nbytes = 32, 64e3
        hd = simulate_on_fabric(
            halving_doubling_allreduce(n, nbytes), fabric_for(n)
        )
        ring = simulate_on_fabric(ring_allreduce(n, nbytes), fabric_for(n))
        assert hd.total_time < ring.total_time

    def test_matches_ring_bandwidth_at_large_sizes(self):
        n, nbytes = 8, 64e6
        hd = simulate_on_fabric(
            halving_doubling_allreduce(n, nbytes), fabric_for(n)
        )
        ring = simulate_on_fabric(ring_allreduce(n, nbytes), fabric_for(n))
        assert hd.total_time == pytest.approx(ring.total_time, rel=0.02)

    def test_loses_to_overlapped_tree_at_large_sizes(self):
        """The overlapped tree halves the bandwidth term; halving-
        doubling cannot (its phases use the same links in sequence)."""
        n, nbytes = 8, 64e6
        hd = simulate_on_fabric(
            halving_doubling_allreduce(n, nbytes), fabric_for(n)
        )
        c1 = simulate_on_fabric(
            tree_allreduce(n, nbytes, nchunks=64, overlapped=True),
            fabric_for(n),
        )
        assert c1.total_time < hd.total_time


class TestOrdering:
    def test_not_in_order(self):
        """Like the ring, halving-doubling scatters ownership: no global
        chunk order, so gradient queuing cannot chain on it."""
        schedule = halving_doubling_allreduce(8, 8e5)
        outcome = simulate_on_fabric(schedule, fabric_for(8))
        assert not delivers_in_order(outcome)
