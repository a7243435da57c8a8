"""Strategy and chunk-count autotuning.

The paper fixes its configuration per experiment; a deployable library
should pick for you.  Two tuners:

- :func:`choose_strategy` — evaluates all five strategies (B / C1 / C2 /
  R / CC) on the iteration pipeline for a given workload and system and
  returns the fastest (C-Cube wins almost everywhere, but the ring can
  win on small systems with tiny batches — the ZFNet/batch-16 exception
  the paper reports).
- :func:`choose_chunks` — sweeps the pipeline chunk count around Eq. 4's
  analytical optimum with the simulator and returns the best K (the
  analytical optimum is flat near the minimum, but the sweep confirms
  it for unusual alpha/beta).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.collectives.base import simulate_on_fabric
from repro.collectives.chunking import optimal_chunk_count
from repro.collectives.tree import tree_allreduce
from repro.core.config import CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline, IterationResult
from repro.dnn.compute_model import ComputeModel, V100_COMPUTE
from repro.dnn.layers import NetworkModel
from repro.topology.switch import FabricSpec


@dataclass(frozen=True)
class StrategyChoice:
    """Result of a strategy autotune.

    Attributes:
        best: the fastest strategy.
        results: every strategy's iteration result, for inspection.
    """

    best: Strategy
    results: dict[Strategy, IterationResult]

    @property
    def speedup_over_baseline(self) -> float:
        return (
            self.results[Strategy.BASELINE].iteration_time
            / self.results[self.best].iteration_time
        )


def choose_strategy(
    network: NetworkModel,
    batch: int,
    *,
    config: CCubeConfig | None = None,
    compute: ComputeModel = V100_COMPUTE,
    on_dgx1: bool = True,
    candidates: tuple[Strategy, ...] = tuple(Strategy),
) -> StrategyChoice:
    """Evaluate ``candidates`` and return the fastest configuration."""
    if not candidates:
        raise ConfigError("need at least one candidate strategy")
    pipeline = IterationPipeline(
        network=network,
        batch=batch,
        config=config or CCubeConfig(),
        compute=compute,
        on_dgx1=on_dgx1,
    )
    results = {s: pipeline.run(s) for s in candidates}
    best = min(results, key=lambda s: results[s].iteration_time)
    if Strategy.BASELINE not in results:
        results[Strategy.BASELINE] = pipeline.run(Strategy.BASELINE)
    return StrategyChoice(best=best, results=results)


@dataclass(frozen=True)
class ChunkChoice:
    """Result of a chunk-count autotune.

    Attributes:
        best: the fastest swept chunk count.
        analytical: Eq. 4's (rounded) optimum.
        times: simulated AllReduce time per swept K.
    """

    best: int
    analytical: int
    times: dict[int, float]

    @property
    def analytical_penalty(self) -> float:
        """Extra time from trusting Eq. 4 instead of the sweep (>= 1.0)."""
        return self.times[self.analytical] / self.times[self.best]


def choose_chunks(
    nbytes: float,
    *,
    config: CCubeConfig | None = None,
    overlapped: bool = True,
    span: int = 3,
) -> ChunkChoice:
    """Sweep K in powers of two around Eq. 4's optimum and simulate.

    Args:
        nbytes: message size.
        config: system parameters.
        overlapped: tune for the overlapped (C1) or baseline tree.
        span: how many powers of two to sweep on each side.
    """
    config = config or CCubeConfig()
    if span < 0:
        raise ConfigError("span must be non-negative")
    analytical = optimal_chunk_count(
        config.nnodes, nbytes, alpha=config.alpha, beta=config.beta,
        max_chunks=config.max_chunks,
    )
    candidates = {analytical}
    for shift in range(1, span + 1):
        candidates.add(max(1, analytical >> shift))
        candidates.add(min(config.max_chunks, analytical << shift))
    fabric = FabricSpec(
        nnodes=config.nnodes, alpha=config.alpha, beta=config.beta
    )
    times = {}
    for k in sorted(candidates):
        schedule = tree_allreduce(
            config.nnodes, nbytes, nchunks=k, overlapped=overlapped
        )
        times[k] = simulate_on_fabric(schedule, fabric).total_time
    best = min(times, key=times.__getitem__)
    return ChunkChoice(best=best, analytical=analytical, times=times)
