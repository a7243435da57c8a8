"""Layer tables for the paper's evaluation networks.

The tables are *generated* from the published architectures — convolution
kernel sizes, channel counts, strides — so parameter totals match the real
models (ResNet-50 ~25.6 M, VGG-16 ~138 M, ZFNet ~62 M) and the per-layer
compute/parameter trend the paper exploits (Fig. 17: compute shrinks and
parameters grow with depth in CNNs) arises from the architectures
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn.layers import LayerKind, LayerSpec, NetworkModel

_IMAGENET_CLASSES = 1000


@dataclass
class _FeatureMap:
    """Tracks the spatial size and channels flowing through a CNN."""

    size: int
    channels: int


def _conv(
    name: str,
    fmap: _FeatureMap,
    *,
    out_channels: int,
    kernel: int,
    stride: int = 1,
) -> LayerSpec:
    """Convolution layer spec; updates ``fmap`` in place."""
    out_size = max(1, fmap.size // stride)
    params = kernel * kernel * fmap.channels * out_channels + out_channels
    flops = 2.0 * kernel * kernel * fmap.channels * out_channels * out_size**2
    fmap.size = out_size
    fmap.channels = out_channels
    return LayerSpec(
        name=name,
        params=params,
        fwd_flops=flops,
        kind=LayerKind.CONV,
        channels=out_channels,
    )


def _pool(fmap: _FeatureMap, *, stride: int = 2) -> None:
    fmap.size = max(1, fmap.size // stride)


def _fc(name: str, in_features: int, out_features: int) -> LayerSpec:
    params = in_features * out_features + out_features
    return LayerSpec(
        name=name,
        params=params,
        fwd_flops=2.0 * in_features * out_features,
        kind=LayerKind.FC,
    )


def zfnet() -> NetworkModel:
    """ZFNet (Zeiler & Fergus 2014): 5 conv layers + 3 FC layers.

    A small CNN with very large FC layers — the paper's "simple CNN"
    workload whose communication is dominated by the classifier.
    """
    fmap = _FeatureMap(size=224, channels=3)
    layers = [
        _conv("conv1.7x7", fmap, out_channels=96, kernel=7, stride=2),
    ]
    _pool(fmap)
    layers.append(_conv("conv2.5x5", fmap, out_channels=256, kernel=5, stride=2))
    _pool(fmap)
    layers.append(_conv("conv3.3x3", fmap, out_channels=384, kernel=3))
    layers.append(_conv("conv4.3x3", fmap, out_channels=384, kernel=3))
    layers.append(_conv("conv5.3x3", fmap, out_channels=256, kernel=3))
    _pool(fmap)
    flat = fmap.size * fmap.size * fmap.channels
    layers.append(_fc("fc6", flat, 4096))
    layers.append(_fc("fc7", 4096, 4096))
    layers.append(_fc("fc8", 4096, _IMAGENET_CLASSES))
    return NetworkModel(name="zfnet", layers=tuple(layers))


_VGG16_CONFIG = (64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
                 512, 512, 512, "M", 512, 512, 512, "M")


def vgg16() -> NetworkModel:
    """VGG-16 (configuration D): 13 conv layers + 3 FC layers.

    The backbone of the Single-Stage Detector workload in the paper's
    Fig. 1, where AllReduce reaches ~60% of execution time.
    """
    fmap = _FeatureMap(size=224, channels=3)
    layers: list[LayerSpec] = []
    block, idx = 1, 1
    for entry in _VGG16_CONFIG:
        if entry == "M":
            _pool(fmap)
            block += 1
            idx = 1
            continue
        layers.append(
            _conv(f"conv{block}_{idx}.3x3", fmap, out_channels=int(entry), kernel=3)
        )
        idx += 1
    flat = fmap.size * fmap.size * fmap.channels
    layers.append(_fc("fc6", flat, 4096))
    layers.append(_fc("fc7", 4096, 4096))
    layers.append(_fc("fc8", 4096, _IMAGENET_CLASSES))
    return NetworkModel(name="vgg16", layers=tuple(layers))


_RESNET50_STAGES = (
    # (blocks, bottleneck width, output channels, first stride)
    (3, 64, 256, 1),
    (4, 128, 512, 2),
    (6, 256, 1024, 2),
    (3, 512, 2048, 2),
)

_RESNET152_STAGES = (
    (3, 64, 256, 1),
    (8, 128, 512, 2),
    (36, 256, 1024, 2),
    (3, 512, 2048, 2),
)


def _resnet(name: str, stages) -> NetworkModel:
    fmap = _FeatureMap(size=224, channels=3)
    layers = [_conv("conv1.7x7", fmap, out_channels=64, kernel=7, stride=2)]
    _pool(fmap)
    for stage_idx, (blocks, width, out_channels, first_stride) in enumerate(
        stages, start=2
    ):
        for block in range(blocks):
            stride = first_stride if block == 0 else 1
            prefix = f"conv{stage_idx}_{block + 1}"
            if block == 0:
                shortcut_fmap = _FeatureMap(size=fmap.size, channels=fmap.channels)
                layers.append(
                    _conv(
                        f"{prefix}.down",
                        shortcut_fmap,
                        out_channels=out_channels,
                        kernel=1,
                        stride=stride,
                    )
                )
            layers.append(
                _conv(f"{prefix}.1x1a", fmap, out_channels=width, kernel=1,
                      stride=stride)
            )
            layers.append(
                _conv(f"{prefix}.3x3", fmap, out_channels=width, kernel=3)
            )
            layers.append(
                _conv(f"{prefix}.1x1b", fmap, out_channels=out_channels, kernel=1)
            )
    layers.append(_fc("fc", 2048, _IMAGENET_CLASSES))
    return NetworkModel(name=name, layers=tuple(layers))


def resnet50() -> NetworkModel:
    """ResNet-50: stem + 16 bottleneck blocks (53 conv layers) + FC.

    The backbone of Mask R-CNN in the paper's Fig. 1 and the network of
    Fig. 17: per-layer parameter size *increases* with depth while
    per-layer compute time *decreases* — the Case-1 pattern C-Cube's
    chaining relies on.
    """
    return _resnet("resnet50", _RESNET50_STAGES)


def resnet152() -> NetworkModel:
    """ResNet-152 (~60M params): the deep-CNN stress case for chaining —
    many more layers over a similar per-stage profile."""
    return _resnet("resnet152", _RESNET152_STAGES)


def alexnet() -> NetworkModel:
    """AlexNet (~61M params): 5 conv + 3 FC, the classic FC-dominated
    profile (similar shape to ZFNet, slightly different geometry)."""
    fmap = _FeatureMap(size=224, channels=3)
    layers = [_conv("conv1.11x11", fmap, out_channels=96, kernel=11,
                    stride=4)]
    _pool(fmap)
    layers.append(_conv("conv2.5x5", fmap, out_channels=256, kernel=5))
    _pool(fmap)
    layers.append(_conv("conv3.3x3", fmap, out_channels=384, kernel=3))
    layers.append(_conv("conv4.3x3", fmap, out_channels=384, kernel=3))
    layers.append(_conv("conv5.3x3", fmap, out_channels=256, kernel=3))
    _pool(fmap)
    flat = 6 * 6 * 256  # AlexNet's published pooling geometry
    layers.append(_fc("fc6", flat, 4096))
    layers.append(_fc("fc7", 4096, 4096))
    layers.append(_fc("fc8", 4096, _IMAGENET_CLASSES))
    return NetworkModel(name="alexnet", layers=tuple(layers))


def bert_base() -> NetworkModel:
    """BERT-Base (~110M params, 128-token sequence): 12 uniform blocks.

    A non-CNN profile: parameters and compute are spread evenly across
    depth (between the paper's Case 1 and Case 2), so chaining neither
    shines nor suffers — useful for studying C-Cube outside CNNs.
    """
    hidden, ffn, vocab, seq_len = 768, 3072, 30522, 128
    layers = [
        LayerSpec(
            name="embeddings",
            params=(vocab + 512 + 2) * hidden,
            fwd_flops=2.0 * seq_len * hidden,
            kind=LayerKind.EMBEDDING,
        )
    ]
    per_block = 4 * hidden * hidden + 2 * hidden * ffn + 2 * hidden
    block_flops = seq_len * (
        8.0 * hidden * hidden + 4.0 * hidden * ffn
        + 4.0 * seq_len * hidden  # attention scores + weighted sum
    )
    for i in range(12):
        layers.append(
            LayerSpec(
                name=f"encoder{i + 1}",
                params=per_block,
                fwd_flops=block_flops,
                kind=LayerKind.FC,
                channels=hidden,
            )
        )
    layers.append(
        LayerSpec(
            name="pooler",
            params=hidden * hidden + hidden,
            fwd_flops=2.0 * hidden * hidden,
            kind=LayerKind.FC,
        )
    )
    return NetworkModel(name="bert_base", layers=tuple(layers))


#: Builders by name, for the experiment harness (the first three are the
#: paper's evaluation networks; the rest extend the workload library).
NETWORKS = {
    "zfnet": zfnet,
    "vgg16": vgg16,
    "resnet50": resnet50,
    "resnet152": resnet152,
    "alexnet": alexnet,
    "bert_base": bert_base,
}
