"""Per-layer compute-time model.

Maps a layer's FLOPs and operator class to wall-clock time on a V100-class
GPU.  Convolutions run near peak throughput; fully-connected layers (GEMV
at training batch sizes) are bandwidth-bound and achieve far less.  Each
layer also pays a fixed launch overhead — which is why tiny late-stage
ResNet layers have near-constant compute time in the paper's Fig. 17.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.dnn.layers import LayerKind, LayerSpec

#: Backward computes roughly twice the forward FLOPs (grad wrt inputs and
#: grad wrt weights).
BACKWARD_FLOP_FACTOR = 2.0


@dataclass(frozen=True)
class ComputeModel:
    """Time model for one GPU.

    Attributes:
        peak_flops: peak throughput in FLOP/s.
        efficiency: achieved fraction of peak, per operator class.
        launch_overhead: fixed per-layer-per-pass kernel overhead (s).
    """

    peak_flops: float = 15.7e12
    efficiency: dict[LayerKind, float] = field(
        default_factory=lambda: {
            LayerKind.CONV: 0.55,
            LayerKind.FC: 0.15,
            LayerKind.EMBEDDING: 0.02,
            LayerKind.NORM: 0.05,
            LayerKind.OTHER: 0.30,
        }
    )
    launch_overhead: float = 10e-6

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ConfigError("peak FLOPs must be positive")
        if self.launch_overhead < 0:
            raise ConfigError("launch overhead must be non-negative")

    def _throughput(self, layer: LayerSpec) -> float:
        base = self.peak_flops * self.efficiency.get(layer.kind, 0.3)
        if layer.kind is LayerKind.CONV and layer.channels > 0:
            # Convolutions with few channels map to skinny GEMMs and reach
            # a lower fraction of peak; efficiency grows toward 1x of the
            # class baseline as channels approach 512 (empirical cuDNN
            # behaviour — the reason per-layer time falls with depth in
            # FLOP-balanced ResNet stages, paper Fig. 17).
            factor = min(1.0, 0.35 + 0.65 * layer.channels / 512.0)
            base *= factor
        return base

    def forward_time(self, layer: LayerSpec, batch: int) -> float:
        """Forward time of ``layer`` at ``batch`` samples."""
        if batch < 1:
            raise ConfigError("batch size must be >= 1")
        flops = layer.fwd_flops * batch
        return self.launch_overhead + flops / self._throughput(layer)

    def backward_time(self, layer: LayerSpec, batch: int) -> float:
        """Backward time (grad wrt inputs + weights) of ``layer``."""
        if batch < 1:
            raise ConfigError("batch size must be >= 1")
        flops = layer.fwd_flops * batch * BACKWARD_FLOP_FACTOR
        return self.launch_overhead + flops / self._throughput(layer)


#: Default V100 model used across the evaluation.
V100_COMPUTE = ComputeModel()
