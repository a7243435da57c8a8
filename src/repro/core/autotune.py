"""Strategy autotuning.

The paper fixes its configuration per experiment; a deployable library
should pick for you.  :func:`choose_strategy` evaluates all five
strategies (B / C1 / C2 / R / CC) on the iteration pipeline for a given
workload and system and returns the fastest.  On every Fig. 13 cell
that is CC, including ZFNet at batch 16, where the paper reports the
ring winning: that exception is the "R beats CC for ZFNet at small
batch" row of :mod:`repro.experiments.registry`, declared not
reproduced.  Chunk counts are Eq. 4's
:func:`repro.collectives.chunking.optimal_chunk_count`; the plan-IR
autotuner :mod:`repro.synth.tune` sweeps pipeline chunk factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.core.config import CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline, IterationResult
from repro.dnn.compute_model import ComputeModel, V100_COMPUTE
from repro.dnn.layers import NetworkModel


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
    )
    results = {s: pipeline.run(s) for s in candidates}
    best = min(results, key=lambda s: results[s].iteration_time)
    if Strategy.BASELINE not in results:
        results[Strategy.BASELINE] = pipeline.run(Strategy.BASELINE)
    return StrategyChoice(best=best, results=results)

