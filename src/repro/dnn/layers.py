"""Layer and network descriptors.

A :class:`LayerSpec` records what the chaining scheduler needs from a
layer: its parameter count (hence gradient bytes) and its forward FLOPs
per sample (hence compute time at a given batch size).  A
:class:`NetworkModel` is an ordered list of layers; the order is the
*forward* order, which is also the gradient-buffer layout C-Cube assumes
(the first chunks of the one-shot AllReduce belong to the first forward
layers, so the first reduced chunks are exactly the ones the next
iteration needs first).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from repro.errors import ConfigError

#: Bytes per parameter (fp32 gradients, as in the paper's CUDA kernels).
BYTES_PER_PARAM = 4


class LayerKind(enum.Enum):
    """Rough operator class; sets compute efficiency in the time model."""

    CONV = "conv"
    FC = "fc"
    EMBEDDING = "embedding"
    NORM = "norm"
    OTHER = "other"


@dataclass(frozen=True)
class LayerSpec:
    """One trainable layer.

    Attributes:
        name: human-readable layer name (e.g. ``"conv3_2.3x3"``).
        params: trainable parameter count.
        fwd_flops: forward FLOPs per input sample.
        kind: operator class.
        channels: output channel count for convolutions (0 when not
            meaningful).  Convolution kernels reach higher fractions of
            peak as channel counts grow (GEMM-shaped work), which is why
            measured per-layer time *decreases* with depth in CNNs even
            though ResNet stages are FLOP-balanced (paper Fig. 17).
    """

    name: str
    params: int
    fwd_flops: float
    kind: LayerKind = LayerKind.CONV
    channels: int = 0

    def __post_init__(self) -> None:
        if self.params < 0 or self.fwd_flops < 0:
            raise ConfigError(f"layer {self.name!r}: negative params/flops")
        if self.channels < 0:
            raise ConfigError(f"layer {self.name!r}: negative channels")

    @property
    def param_bytes(self) -> int:
        """Gradient bytes this layer contributes to the AllReduce."""
        return self.params * BYTES_PER_PARAM


@dataclass(frozen=True)
class NetworkModel:
    """An ordered network: layers in forward order.

    The gradient buffer is laid out in the same order, so layer ``i``'s
    gradient bytes occupy ``[byte_offset(i), byte_offset(i) + bytes_i)``.
    """

    name: str
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError(f"network {self.name!r} has no layers")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    @property
    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def total_bytes(self) -> int:
        return sum(layer.param_bytes for layer in self.layers)

    @cached_property
    def _byte_offsets(self) -> tuple[int, ...]:
        """Prefix sums of the layers' gradient bytes, starting at 0."""
        return tuple(itertools.accumulate(
            (layer.param_bytes for layer in self.layers), initial=0
        ))

    def byte_offset(self, index: int) -> int:
        """Starting byte of layer ``index`` in the gradient buffer."""
        if not 0 <= index < len(self.layers):
            raise ConfigError(f"layer index {index} out of range")
        return self._byte_offsets[index]

    def byte_range(self, index: int) -> tuple[int, int]:
        """Half-open byte range of layer ``index`` in the gradient buffer."""
        start = self.byte_offset(index)
        return start, start + self.layers[index].param_bytes
