"""Communication/computation pattern analysis (paper Fig. 16).

C-Cube overlaps communication with the *next* iteration's forward pass, so
its benefit depends on how compute and gradient bytes are distributed
across layers:

- **Case 1** — compute shrinks and gradient size grows with depth (the
  common CNN pattern, paper Fig. 17): early layers' long forward passes
  hide the remaining communication; chaining is efficient.
- **Case 2** — compute *grows* with depth: early forward passes are too
  short to cover the communication, so "bubbles" appear — forward stalls
  between layers waiting for gradient chunks.
- **Case 3** — gradient bytes concentrated in the *early* layers: the
  first layer needs many chunks, pushing the gradient turnaround (and the
  start of forward) back.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError
from repro.core.config import CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline, IterationResult
from repro.dnn.compute_model import ComputeModel
from repro.dnn.layers import LayerKind, LayerSpec, NetworkModel


class PatternCase(enum.Enum):
    """The three layer-profile shapes of paper Fig. 16."""

    DECREASING_COMPUTE = "case1"  # compute down, comm up with depth
    INCREASING_COMPUTE = "case2"  # compute up with depth
    FRONT_LOADED_COMM = "case3"  # comm concentrated in early layers


#: Per-layer geometric ratio of a synthetic profile: how strongly it
#: rises or falls across depth.
SKEW = 1.7


def _geometric_shares(nlayers: int) -> list[float]:
    """Normalized geometric progression ``SKEW**i``."""
    weights = [SKEW**i for i in range(nlayers)]
    total = sum(weights)
    return [w / total for w in weights]


def synthetic_network(
    case: PatternCase,
    *,
    nlayers: int = 8,
    total_params: int = 16_000_000,
    total_flops: float = 4e9,
) -> NetworkModel:
    """A synthetic network whose layer profile matches ``case``.

    Args:
        case: the pattern shape.
        nlayers: layer count.
        total_params: total parameters (gradient bytes / 4).
        total_flops: total forward FLOPs per sample.
    """
    if nlayers < 2:
        raise ConfigError("need at least 2 layers")
    rising = _geometric_shares(nlayers)
    falling = list(reversed(rising))
    if case is PatternCase.DECREASING_COMPUTE:
        flop_share, param_share = falling, rising
    elif case is PatternCase.INCREASING_COMPUTE:
        flop_share, param_share = rising, rising
    elif case is PatternCase.FRONT_LOADED_COMM:
        flop_share, param_share = falling, falling
    else:  # pragma: no cover - exhaustive enum
        raise ConfigError(f"unknown case {case}")
    layers = tuple(
        LayerSpec(
            name=f"{case.value}.L{i + 1}",
            params=max(1, round(total_params * param_share[i])),
            fwd_flops=total_flops * flop_share[i],
            kind=LayerKind.CONV,
        )
        for i in range(nlayers)
    )
    return NetworkModel(name=f"synthetic-{case.value}", layers=layers)


def analyze_pattern(
    case: PatternCase,
    *,
    batch: int = 64,
    config: CCubeConfig | None = None,
    compute: ComputeModel | None = None,
    **network_kwargs: object,
) -> IterationResult:
    """Run the C-Cube timeline on a synthetic ``case`` network.

    Returns the steady-state :class:`IterationResult`; tests and the Fig.
    16 experiment inspect ``bubble_time`` (Case 2) and the first layer's
    ``fwd_start`` (Case 3's turnaround push-back).
    """
    network = synthetic_network(case, **network_kwargs)  # type: ignore[arg-type]
    pipeline = IterationPipeline(
        network=network,
        batch=batch,
        config=config or CCubeConfig(),
        compute=compute or ComputeModel(),
    )
    return pipeline.run(Strategy.CCUBE)
