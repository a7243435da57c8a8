"""Tests for the automated double-tree embedding search."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.topology.base import PhysicalTopology
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.dgx2 import dgx2_topology
from repro.topology.routing import Router
from repro.topology.tree_search import (
    PairCost,
    detour_map_for,
    evaluate_pair,
    search_degraded_pair,
    search_tree_pair,
)


class TestEvaluatePair:
    def test_hand_crafted_dgx1_pair_scores_clean(self):
        """Our Fig.-10 pair: zero infeasible edges, zero conflicts (the
        shared channels land on doubled links), exactly one detour."""
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        cost = evaluate_pair(*dgx1_trees(), topo, router)
        assert cost.infeasible_edges == 0
        assert cost.conflicts == 0
        assert cost.detours == 1

    def test_conflicts_counted_without_double_links(self):
        topo = dgx1_topology(double_links=False)
        router = Router(topo, detour_preference=DETOUR_NODES)
        cost = evaluate_pair(*dgx1_trees(), topo, router)
        assert cost.conflicts > 0

    def test_cost_ordering_lexicographic(self):
        a = PairCost(0, 0, 1, 8)
        b = PairCost(0, 1, 0, 6)
        assert a < b  # conflicts dominate detours/height


class TestSearch:
    def test_dgx1_search_matches_hand_crafted_quality(self):
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        _pair, cost = search_tree_pair(
            topo, router=router, iterations=1500, restarts=4, seed=3
        )
        assert cost.infeasible_edges == 0
        assert cost.conflicts == 0
        assert cost.detours <= 2  # hand-crafted pair needs 1

    def test_crossbar_search_is_conflict_and_detour_free(self):
        topo = dgx2_topology(ngpus=8)
        _pair, cost = search_tree_pair(topo, iterations=400, restarts=2)
        assert cost.infeasible_edges == 0
        assert cost.conflicts == 0
        assert cost.detours == 0

    def test_deterministic_given_seed(self):
        topo = dgx1_topology()
        r1 = search_tree_pair(topo, iterations=300, restarts=2, seed=11)
        r2 = search_tree_pair(topo, iterations=300, restarts=2, seed=11)
        assert r1[1] == r2[1]
        assert r1[0][0].parent == r2[0][0].parent

    def test_found_pair_spans_all_gpus(self):
        topo = dgx1_topology()
        (first, second), _ = search_tree_pair(
            topo, iterations=300, restarts=2
        )
        assert sorted(first.nodes) == list(range(8))
        assert sorted(second.nodes) == list(range(8))

    def test_trivial_topology_rejected(self):
        with pytest.raises(ConfigError):
            search_tree_pair(PhysicalTopology(nnodes=1))

    @pytest.mark.parametrize("budget, match", [
        (dict(restarts=0), "restarts"),
        (dict(iterations=-5), "iterations"),
    ])
    def test_invalid_budget_rejected(self, budget, match):
        """A search budget that cannot search is a config error, not an
        assertion (gone under ``-O``) or the unsearched starting pair."""
        with pytest.raises(ConfigError, match=match):
            search_tree_pair(dgx1_topology(), **budget)
        with pytest.raises(ConfigError, match=match):
            search_degraded_pair(dgx1_topology(), {3}, **budget)


class TestDetourMap:
    def test_hand_crafted_pair_map(self):
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        detours = detour_map_for(dgx1_trees(), topo, router)
        assert detours == {(2, 4): 0}

    def test_crossbar_needs_no_detours(self):
        topo = dgx2_topology(ngpus=8)
        (first, second), _ = search_tree_pair(topo, iterations=200)
        assert detour_map_for((first, second), topo) == {}

    def test_infeasible_edge_raises(self):
        # A line topology: distant pairs have no 2-hop detour.
        topo = PhysicalTopology(nnodes=4, name="line")
        for i in range(3):
            topo.add_link(i, i + 1, alpha=0, beta=0)
        from repro.topology.logical import BinaryTree

        bad = BinaryTree(
            root=0, parent={3: 0, 1: 3, 2: 1},
            children={0: (3,), 3: (1,), 1: (2,), 2: ()},
        )
        with pytest.raises(ConfigError, match="infeasible"):
            detour_map_for((bad, bad), topo)


class TestSearchedPairRunsFunctionally:
    def test_found_pair_powers_the_runtime(self, rng):
        """End to end: search an embedding on the DGX-1, run the real
        (thread-backed) overlapped AllReduce on it."""
        from repro.runtime.allreduce import TreeAllReduceRuntime
        from repro.runtime.sync import SpinConfig

        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        pair, cost = search_tree_pair(
            topo, router=router, iterations=1500, restarts=4, seed=3
        )
        assert cost.infeasible_edges == 0
        runtime = TreeAllReduceRuntime(
            pair,
            total_elems=512,
            chunks_per_tree=4,
            overlapped=True,
            detour_map=detour_map_for(pair, topo, router),
            spin=SpinConfig(timeout=15.0),
        )
        inputs = [rng.normal(size=512) for _ in range(8)]
        report = runtime.run(inputs)
        expected = np.sum(inputs, axis=0)
        for out in report.outputs:
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
