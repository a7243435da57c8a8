"""Tests for the paper's DGX-1 two-tree pair (Fig. 10 constraints)."""

import pytest

from repro.topology.dgx1 import DOUBLE_LINK_PAIRS, dgx1_topology
from repro.topology.dgx1_trees import (
    DETOURED_EDGES,
    dgx1_tree_first,
    dgx1_tree_second,
    dgx1_trees,
)


def directed_edges(tree):
    """Every directed channel ``tree`` uses, up or down."""
    return {*tree.up_edges(), *tree.down_edges()}


@pytest.fixture
def pair():
    return dgx1_trees()


@pytest.fixture
def topo():
    return dgx1_topology()


class TestTreeValidity:
    def test_both_trees_validate(self, pair):
        for tree in pair:
            tree.validate()

    def test_both_trees_span_all_eight_gpus(self, pair):
        for tree in pair:
            assert sorted(tree.nodes) == list(range(8))

    def test_binary(self, pair):
        for tree in pair:
            assert all(len(kids) <= 2 for kids in tree.children.values())

    def test_roots_differ(self, pair):
        first, second = pair
        assert first.root != second.root


class TestPaperConstraints:
    def test_conflicts_exactly_on_doubled_pairs(self, pair):
        """The trees share channels only where the DGX-1 has two NVLinks."""
        first, second = pair
        shared = directed_edges(first) & directed_edges(second)
        shared_pairs = {frozenset(edge) for edge in shared}
        assert shared_pairs == {frozenset(p) for p in DOUBLE_LINK_PAIRS}

    def test_conflicts_have_opposite_phase_orientation(self, pair):
        """On each shared pair, one tree's uplink is the other's downlink
        (paper Section IV-A's description of the conflict)."""
        first, second = pair
        ups1, ups2 = set(first.up_edges()), set(second.up_edges())
        for u, v in DOUBLE_LINK_PAIRS:
            in_first_up = (u, v) in ups1 or (v, u) in ups1
            assert in_first_up
            # The same directed edge must not be an uplink in both trees.
            for edge in ((u, v), (v, u)):
                assert not (edge in ups1 and edge in ups2)

    def test_gpu2_gpu4_edge_needs_detour(self, pair, topo):
        """The paper's dotted-line edge: present logically, absent
        physically, detoured via GPU0."""
        second = pair[1]
        assert second.parent[2] == 4  # reduction forwards GPU2 -> GPU4
        assert not topo.has_link(2, 4)
        assert DETOURED_EDGES[(2, 4)] == 0

    def test_all_other_edges_physical(self, pair, topo):
        for tree in pair:
            for child, parent in tree.up_edges():
                if (child, parent) in DETOURED_EDGES:
                    continue
                assert topo.has_link(child, parent), (child, parent)

    def test_physical_channel_usage_disjoint_apart_from_doubles(self, pair, topo):
        """Outside the doubled pairs (and the detour hops through GPU0),
        the trees must not compete for any physical channel."""
        from repro.topology.dgx1 import DETOUR_NODES
        from repro.topology.routing import Router

        router = Router(topo, detour_preference=DETOUR_NODES)
        used: list[set] = []
        for tree in pair:
            channels = set()
            for child, parent in tree.up_edges():
                path = router.route(child, parent)
                for a, b in zip(path, path[1:]):
                    channels.add((a, b))
                    channels.add((b, a))
            used.append(channels)
        overlap_pairs = {frozenset((a, b)) for a, b in used[0] & used[1]}
        assert overlap_pairs == {frozenset(p) for p in DOUBLE_LINK_PAIRS}


class TestIndividualTrees:
    def test_first_tree_root_is_3(self):
        assert dgx1_tree_first().root == 3

    def test_second_tree_root_is_4(self):
        assert dgx1_tree_second().root == 4

    def test_heights_are_logarithmic_ish(self, pair):
        assert pair[0].height() <= 4
        assert pair[1].height() <= 4
