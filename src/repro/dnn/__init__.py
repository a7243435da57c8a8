"""Per-layer DNN workload models.

C-Cube never changes the training math — only *when* each layer's forward
pass may start — so the workload model a reproduction needs is each
layer's (parameter bytes, forward/backward compute time) profile.  The
networks here are generated from the real architectures' layer shapes
(convolution kernel/channel/feature-map sizes), so parameter counts match
the published models and the compute-vs-params trend across depth (paper
Fig. 17) emerges from the architecture itself rather than being hardcoded.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LayerKind",
    "LayerSpec",
    "NetworkModel",
    "ComputeModel",
    "V100_COMPUTE",
    "alexnet",
    "bert_base",
    "resnet152",
    "resnet50",
    "vgg16",
    "zfnet",
    "NETWORKS",
    "MLPERF_PROFILES",
    "WorkloadProfile",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "LayerKind": "layers",
        "LayerSpec": "layers",
        "NetworkModel": "layers",
        "ComputeModel": "compute_model",
        "V100_COMPUTE": "compute_model",
        "NETWORKS": "networks",
        "alexnet": "networks",
        "bert_base": "networks",
        "resnet152": "networks",
        "resnet50": "networks",
        "vgg16": "networks",
        "zfnet": "networks",
        "MLPERF_PROFILES": "profiles",
        "WorkloadProfile": "profiles",
    },
)
