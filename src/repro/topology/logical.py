"""Logical topologies collective algorithms communicate over.

The *logical* topology is the shape of the algorithm (paper Section I):
a ring order for the ring AllReduce, a binary tree for the tree AllReduce,
and the Sanders two-tree pair for the double (binary-)tree algorithm.  The
second tree of the pair is the first tree *flipped* — node ``i`` relabelled
``P-1-i`` — exactly the construction the paper's footnote 4 describes for
NCCL's double binary tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TopologyError


def ring_order(nnodes: int, *, start: int = 0) -> list[int]:
    """Ring traversal order ``start, start+1, ..`` modulo ``nnodes``."""
    if nnodes < 2:
        raise TopologyError("a ring needs at least 2 nodes")
    return [(start + i) % nnodes for i in range(nnodes)]


@dataclass(frozen=True)
class BinaryTree:
    """A rooted binary tree over node ids.

    Attributes:
        root: root node id.
        parent: mapping child -> parent (root absent).
        children: mapping node -> tuple of children (possibly empty).
    """

    root: int
    parent: dict[int, int] = field(default_factory=dict)
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.children.keys())

    @property
    def nnodes(self) -> int:
        return len(self.children)

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

    def leaves(self) -> list[int]:
        return [n for n in self.nodes if self.is_leaf(n)]

    def depth_of(self, node: int) -> int:
        depth = 0
        while node != self.root:
            node = self.parent[node]
            depth += 1
        return depth

    def height(self) -> int:
        """Longest root-to-leaf path length (edges)."""
        return max(self.depth_of(leaf) for leaf in self.leaves())

    def up_edges(self) -> list[tuple[int, int]]:
        """(child, parent) pairs — the reduction direction."""
        return sorted(self.parent.items())

    def down_edges(self) -> list[tuple[int, int]]:
        """(parent, child) pairs — the broadcast direction."""
        return [(p, c) for c, p in sorted(self.parent.items())]

    def bfs_order(self) -> list[int]:
        """Nodes in breadth-first order from the root."""
        order = [self.root]
        frontier = [self.root]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                next_frontier.extend(self.children[node])
            order.extend(next_frontier)
            frontier = next_frontier
        return order

    def relabel(self, mapping: dict[int, int]) -> "BinaryTree":
        """Return a copy of the tree with every node id remapped."""
        return BinaryTree(
            root=mapping[self.root],
            parent={mapping[c]: mapping[p] for c, p in self.parent.items()},
            children={
                mapping[n]: tuple(mapping[c] for c in cs)
                for n, cs in self.children.items()
            },
        )

    def validate(self) -> None:
        """Check tree structure: connected, acyclic, consistent maps."""
        if self.root not in self.children:
            raise TopologyError("root missing from children map")
        if self.root in self.parent:
            raise TopologyError("root must not have a parent")
        for node, kids in self.children.items():
            if len(kids) > 2:
                raise TopologyError(f"node {node} has {len(kids)} children")
            for kid in kids:
                if self.parent.get(kid) != node:
                    raise TopologyError(
                        f"child {kid} of {node} has parent {self.parent.get(kid)}"
                    )
        seen = set(self.bfs_order())
        if seen != set(self.children):
            raise TopologyError("tree is not connected")


def balanced_binary_tree(nnodes: int) -> BinaryTree:
    """Balanced binary tree over ids ``0..nnodes-1`` via in-order placement.

    The root of a contiguous id range is its midpoint, so the tree is a
    balanced binary search tree of height ``ceil(log2(nnodes))`` — the
    logarithmic depth the paper's cost model (Eq. 3) assumes.
    """
    if nnodes < 1:
        raise TopologyError("tree needs at least 1 node")
    parent: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}

    def build(lo: int, hi: int) -> int:
        mid = (lo + hi) // 2
        kids = []
        if lo < mid:
            left = build(lo, mid - 1)
            parent[left] = mid
            kids.append(left)
        if mid < hi:
            right = build(mid + 1, hi)
            parent[right] = mid
            kids.append(right)
        children[mid] = tuple(kids)
        return mid

    root = build(0, nnodes - 1)
    tree = BinaryTree(root=root, parent=parent, children=children)
    tree.validate()
    return tree


def mirror_tree(tree: BinaryTree) -> BinaryTree:
    """The tree *flipped*: node ``i`` relabelled ``P-1-i`` (paper footnote 4)."""
    nnodes = tree.nnodes
    mapping = {i: nnodes - 1 - i for i in tree.nodes}
    if sorted(tree.nodes) != list(range(nnodes)):
        raise TopologyError("mirror_tree requires dense node ids 0..P-1")
    mirrored = tree.relabel(mapping)
    mirrored.validate()
    return mirrored


def two_trees(nnodes: int) -> tuple[BinaryTree, BinaryTree]:
    """The Sanders-style double binary tree pair: a balanced tree and its
    mirror.  Each tree carries half the data; together they use both
    directions of every tree edge, doubling effective bandwidth."""
    first = balanced_binary_tree(nnodes)
    return first, mirror_tree(first)
