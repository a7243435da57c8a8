"""Physical and logical topologies, routing, and embedding.

*Physical* topologies (:mod:`repro.topology.base`, :mod:`~repro.topology.dgx1`,
:mod:`~repro.topology.switch`) describe real connectivity: which
unidirectional channels exist between which devices, with what alpha/beta.

*Logical* topologies (:mod:`repro.topology.logical`) describe the shape a
collective algorithm communicates over: a ring order, a binary tree, or the
Sanders two-tree pair.

:mod:`repro.topology.routing` finds minimal and detour (non-minimal) routes;
:mod:`repro.topology.embedding` rewrites a logical-edge DAG onto physical
channels, inserting detour hops where direct links do not exist.
"""

from repro._lazy import lazy_exports

# Imported eagerly: this function shares its name with the submodule that
# defines it, and importing the submodule binds the module to that name
# here (see repro._lazy).
from repro.topology.dgx1_trees import dgx1_trees

__all__ = [
    "LinkKind",
    "LinkSpec",
    "PhysicalTopology",
    "DETOUR_NODES",
    "dgx1_topology",
    "DETOURED_EDGES",
    "dgx1_trees",
    "dgx2_topology",
    "BinaryTree",
    "balanced_binary_tree",
    "ring_order",
    "two_trees",
    "Router",
    "fat_tree_topology",
    "switch_topology",
    "embed_on_physical",
    "PairCost",
    "detour_map_for",
    "evaluate_pair",
    "search_tree_pair",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "LinkKind": "base",
        "LinkSpec": "base",
        "PhysicalTopology": "base",
        "DETOUR_NODES": "dgx1",
        "dgx1_topology": "dgx1",
        "DETOURED_EDGES": "dgx1_trees",
        "dgx2_topology": "dgx2",
        "BinaryTree": "logical",
        "balanced_binary_tree": "logical",
        "ring_order": "logical",
        "two_trees": "logical",
        "Router": "routing",
        "fat_tree_topology": "switch",
        "switch_topology": "switch",
        "embed_on_physical": "embedding",
        "PairCost": "tree_search",
        "detour_map_for": "tree_search",
        "evaluate_pair": "tree_search",
        "search_tree_pair": "tree_search",
    },
)
