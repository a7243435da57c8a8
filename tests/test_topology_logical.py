"""Tests for logical topologies: rings, trees, the two-tree pair."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.topology.logical import (
    BinaryTree,
    balanced_binary_tree,
    mirror_tree,
    ring_order,
    two_trees,
)


class TestRingOrder:
    def test_default_order(self):
        assert ring_order(4) == [0, 1, 2, 3]

    def test_start_offset_wraps(self):
        assert ring_order(4, start=2) == [2, 3, 0, 1]

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            ring_order(1)


class TestBalancedBinaryTree:
    @given(st.integers(min_value=1, max_value=200))
    def test_contains_all_nodes_exactly_once(self, n):
        tree = balanced_binary_tree(n)
        assert sorted(tree.nodes) == list(range(n))

    @given(st.integers(min_value=2, max_value=200))
    def test_height_is_logarithmic(self, n):
        tree = balanced_binary_tree(n)
        assert tree.height() <= math.ceil(math.log2(n)) + 1

    @given(st.integers(min_value=1, max_value=100))
    def test_at_most_two_children(self, n):
        tree = balanced_binary_tree(n)
        assert all(len(kids) <= 2 for kids in tree.children.values())

    @given(st.integers(min_value=2, max_value=100))
    def test_edge_count_is_n_minus_one(self, n):
        tree = balanced_binary_tree(n)
        assert len(tree.up_edges()) == n - 1

    def test_single_node_tree(self):
        tree = balanced_binary_tree(1)
        assert tree.root == 0
        assert tree.leaves() == [0]

    def test_validates(self):
        balanced_binary_tree(8).validate()

    def test_invalid_node_count(self):
        with pytest.raises(TopologyError):
            balanced_binary_tree(0)


class TestTreeMethods:
    @pytest.fixture
    def tree(self):
        return balanced_binary_tree(8)

    def test_bfs_starts_at_root(self, tree):
        order = tree.bfs_order()
        assert order[0] == tree.root
        assert sorted(order) == list(range(8))

    def test_depth_of_root_is_zero(self, tree):
        assert tree.depth_of(tree.root) == 0

    def test_leaves_have_no_children(self, tree):
        for leaf in tree.leaves():
            assert tree.children[leaf] == ()

    def test_up_and_down_edges_are_reverses(self, tree):
        ups = set(tree.up_edges())
        downs = {(c, p) for p, c in tree.down_edges()}
        assert ups == downs

    def test_relabel_preserves_structure(self, tree):
        mapping = {i: i + 10 for i in tree.nodes}
        relabeled = tree.relabel(mapping)
        relabeled.validate()
        assert relabeled.root == tree.root + 10
        assert relabeled.nnodes == tree.nnodes

    def test_validate_rejects_orphan(self):
        bad = BinaryTree(root=0, parent={1: 0}, children={0: (1,), 1: (), 2: ()})
        with pytest.raises(TopologyError, match="not connected"):
            bad.validate()

    def test_validate_rejects_inconsistent_parent(self):
        bad = BinaryTree(root=0, parent={1: 2}, children={0: (1,), 1: ()})
        with pytest.raises(TopologyError):
            bad.validate()

    def test_validate_rejects_three_children(self):
        bad = BinaryTree(
            root=0,
            parent={1: 0, 2: 0, 3: 0},
            children={0: (1, 2, 3), 1: (), 2: (), 3: ()},
        )
        with pytest.raises(TopologyError, match="children"):
            bad.validate()


class TestTwoTrees:
    @given(st.integers(min_value=2, max_value=64))
    def test_both_trees_span_all_nodes(self, n):
        first, second = two_trees(n)
        assert sorted(first.nodes) == sorted(second.nodes) == list(range(n))

    def test_mirror_relabels_i_to_p_minus_1_minus_i(self):
        first = balanced_binary_tree(8)
        second = mirror_tree(first)
        assert second.root == 7 - first.root

    @given(st.integers(min_value=4, max_value=64))
    def test_mirror_preserves_height(self, n):
        first = balanced_binary_tree(n)
        assert mirror_tree(first).height() == first.height()

    def test_shared_directed_edges_nonempty_for_mirror_pair(self):
        # The mirrored pair conflicts on some channels — the reason the
        # paper needs the extra physical connectivity (Section IV-A).
        first, second = two_trees(8)
        directed = [{*t.up_edges(), *t.down_edges()} for t in (first, second)]
        assert directed[0] & directed[1]
