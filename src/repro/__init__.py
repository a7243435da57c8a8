"""Reproduction of C-Cube (HPCA 2023).

C-Cube — *Chaining Collective Communication with Computation* — accelerates
tree-based AllReduce for data-parallel deep-learning training by

1. overlapping the reduction and broadcast phases of a tree AllReduce
   (the *overlapped tree* algorithm, "C1"),
2. chaining communication with the *next* iteration's forward computation
   through *gradient queuing* ("C2"), and
3. exploiting physical-topology features (detour routes and duplicated
   NVLink channels on the DGX-1 hybrid mesh-cube) to run an overlapped
   *double* tree ("CC" / C-Cube).

The package is organised as:

- :mod:`repro.sim` — discrete-event timing simulator (channels + DAGs),
- :mod:`repro.topology` — physical (DGX-1, switch fabrics) and logical
  (ring, tree, two-tree) topologies, routing, and embedding,
- :mod:`repro.collectives` — chunked, pipelined collective schedules,
- :mod:`repro.models` — analytical alpha-beta cost models (paper Eq. 1-7),
- :mod:`repro.runtime` — thread-backed functional virtual-GPU cluster with
  the paper's device-side synchronization primitives (Fig. 11),
- :mod:`repro.dnn` — per-layer DNN workload models (ZFNet, VGG-16,
  ResNet-50) and MLPerf profiles,
- :mod:`repro.core` — gradient queuing, chaining scheduler, and the
  training-iteration pipeline for strategies B / C1 / C2 / R / CC,
- :mod:`repro.experiments` — one module per paper figure.
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__all__ = [
    "__version__",
    "Strategy",
    "IterationPipeline",
    "simulate_iteration",
    "ring_allreduce",
    "tree_allreduce",
    "double_tree_allreduce",
    "ccube_allreduce",
    "dgx1_topology",
    "fat_tree_topology",
    "resnet50",
    "vgg16",
    "zfnet",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Strategy": "core.config",
        "IterationPipeline": "core.pipeline",
        "simulate_iteration": "core.pipeline",
        "ring_allreduce": "collectives.ring",
        "tree_allreduce": "collectives.tree",
        "double_tree_allreduce": "collectives.double_tree",
        "ccube_allreduce": "collectives.double_tree",
        "dgx1_topology": "topology.dgx1",
        "fat_tree_topology": "topology.switch",
        "resnet50": "dnn.networks",
        "vgg16": "dnn.networks",
        "zfnet": "dnn.networks",
    },
)
