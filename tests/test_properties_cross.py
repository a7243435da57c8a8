"""Cross-algorithm property suite: the paper's invariants, randomized.

These are the load-bearing claims of the reproduction, checked over
random algorithm/size/chunking configurations:

1. every schedule is a correct AllReduce (symbolically and in simulated
   completion order),
2. overlapping never slows a tree down, and never changes *what* is
   computed,
3. gradient turnaround of the overlapped tree never exceeds the
   baseline's,
4. chunk availability is monotone in chunk id within each tree
   (Observation #3), and only tree algorithms have this property,
5. simulated traces never double-book a resource.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    ccube_allreduce,
    double_tree_allreduce,
    ring_allreduce,
    simulate_on_fabric,
    tree_allreduce,
)
from repro.collectives.halving_doubling import halving_doubling_allreduce
from repro.collectives.verification import (
    check_allreduce,
    check_allreduce_simulated,
    delivers_in_order,
)
from repro.sim.trace import overlapping_pairs
from repro.topology.switch import FabricSpec

#: Each emitter by name; the ring always uses P chunks per ring.
BUILDERS = {
    "ring": lambda nnodes, nbytes, nchunks: ring_allreduce(nnodes, nbytes),
    "tree": tree_allreduce,
    "overlapped_tree": lambda nnodes, nbytes, nchunks: tree_allreduce(
        nnodes, nbytes, nchunks=nchunks, overlapped=True
    ),
    "double_tree": double_tree_allreduce,
    "ccube": ccube_allreduce,
}

ALGOS = st.sampled_from(list(BUILDERS))


def fabric_for(n, lanes=2):
    return FabricSpec(nnodes=n, alpha=1e-6, beta=1e-9, lanes=lanes)


@given(
    algorithm=ALGOS,
    nnodes=st.integers(min_value=2, max_value=10),
    nchunks=st.integers(min_value=1, max_value=5),
    scale=st.sampled_from([1e3, 1e5, 1e7]),
)
@settings(max_examples=40, deadline=None)
def test_every_algorithm_is_a_correct_allreduce(
    algorithm, nnodes, nchunks, scale
):
    schedule = BUILDERS[algorithm](
        nnodes, float(nnodes * scale), nchunks=nchunks
    )
    check_allreduce(schedule)
    outcome = simulate_on_fabric(schedule, fabric_for(nnodes))
    check_allreduce_simulated(outcome)
    assert overlapping_pairs(outcome.sim.trace) == []


@given(
    nnodes=st.sampled_from([2, 4, 8, 16]),
    nchunks=st.integers(min_value=1, max_value=32),
    scale=st.sampled_from([1e4, 1e6, 1e8]),
)
@settings(max_examples=30, deadline=None)
def test_overlap_dominance(nnodes, nchunks, scale):
    """T(C1) <= T(B) and turnaround(C1) <= turnaround(B), always."""
    nbytes = float(nnodes * scale)
    base = simulate_on_fabric(
        tree_allreduce(nnodes, nbytes, nchunks=nchunks),
        fabric_for(nnodes),
    )
    over = simulate_on_fabric(
        tree_allreduce(nnodes, nbytes, nchunks=nchunks, overlapped=True),
        fabric_for(nnodes),
    )
    assert over.total_time <= base.total_time + 1e-12
    assert over.turnaround <= base.turnaround + 1e-12


@given(
    nnodes=st.sampled_from([2, 4, 8]),
    nchunks=st.integers(min_value=1, max_value=16),
    overlapped=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_tree_chunk_availability_monotone(nnodes, nchunks, overlapped):
    schedule = double_tree_allreduce(
        nnodes, float(nnodes * nchunks * 100), nchunks=nchunks,
        overlapped=overlapped,
    )
    outcome = simulate_on_fabric(schedule, fabric_for(nnodes))
    # Per tree, availability times are non-decreasing in chunk id.
    for tree_index in range(2):
        chunk_ids = [
            c for c in range(schedule.nchunks)
            if (c < nchunks) == (tree_index == 0)
        ]
        times = [outcome.chunk_available[c] for c in chunk_ids]
        assert times == sorted(times)


@given(nnodes=st.sampled_from([4, 8, 16]))
@settings(max_examples=6, deadline=None)
def test_only_trees_deliver_in_order(nnodes):
    fabric = fabric_for(nnodes)
    nbytes = float(nnodes * 1e5)
    tree = simulate_on_fabric(
        tree_allreduce(nnodes, nbytes, nchunks=nnodes), fabric
    )
    ring = simulate_on_fabric(ring_allreduce(nnodes, nbytes), fabric)
    hd = simulate_on_fabric(
        halving_doubling_allreduce(nnodes, nbytes), fabric
    )
    assert delivers_in_order(tree)
    assert not delivers_in_order(ring)
    assert not delivers_in_order(hd)


@given(
    nnodes=st.sampled_from([2, 4, 8]),
    nchunks=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=15, deadline=None)
def test_turnaround_never_exceeds_total(nnodes, nchunks):
    for algorithm in ("ring", "double_tree", "ccube"):
        schedule = BUILDERS[algorithm](
            nnodes, float(nnodes * 1e5), nchunks=nchunks
        )
        outcome = simulate_on_fabric(schedule, fabric_for(nnodes))
        assert outcome.turnaround <= outcome.total_time + 1e-15
        assert outcome.turnaround > 0


@given(
    nnodes=st.sampled_from([2, 4, 8]),
    nchunks=st.integers(min_value=1, max_value=8),
    lanes=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=15, deadline=None)
def test_more_lanes_never_slower(nnodes, nchunks, lanes):
    schedule = ccube_allreduce(nnodes, float(nnodes * 1e6), nchunks=nchunks)
    few = simulate_on_fabric(schedule, fabric_for(nnodes, lanes=lanes))
    more = simulate_on_fabric(schedule, fabric_for(nnodes, lanes=lanes + 1))
    assert more.total_time <= few.total_time + 1e-12


@pytest.mark.parametrize("algorithm", ["ring", "tree", "double_tree",
                                       "ccube"])
def test_halving_bandwidth_doubles_bandwidth_term(algorithm):
    """Scaling beta by 2 scales the bandwidth-bound part consistently:
    total time grows, but by at most 2x."""
    fast = simulate_on_fabric(
        BUILDERS[algorithm](8, 64e6, nchunks=32),
        FabricSpec(nnodes=8, alpha=1e-6, beta=1e-9, lanes=2),
    )
    slow = simulate_on_fabric(
        BUILDERS[algorithm](8, 64e6, nchunks=32),
        FabricSpec(nnodes=8, alpha=1e-6, beta=2e-9, lanes=2),
    )
    assert fast.total_time < slow.total_time <= 2 * fast.total_time + 1e-9
