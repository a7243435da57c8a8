"""The training-iteration timeline: chaining communication with the next
iteration's forward computation (paper Section III-D, Fig. 8).

The paper's key scheduling idea: the one-shot AllReduce starts when
backward ends, and instead of waiting for the whole collective, the next
iteration's forward pass of layer *i* starts as soon as

1. layer *i-1*'s forward pass finished (data dependency), and
2. layer *i*'s gradient chunks have all arrived (gradient queue dequeue).

Strategies without chaining (B, C1, R) start forward only when the whole
collective completes.  The timeline below measures one steady-state
iteration from the instant backward ends (= AllReduce start).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.collectives.base import AllReduceOutcome
from repro.core.comm import simulate_strategy_comm
from repro.core.config import CCubeConfig, Strategy
from repro.core.gradient_queue import layer_ready_times
from repro.dnn.compute_model import ComputeModel, V100_COMPUTE
from repro.dnn.layers import NetworkModel


@dataclass(frozen=True)
class IterationResult:
    """Timing of one steady-state training iteration.

    All times are in seconds; forward times are measured from the end of
    backward (= start of the AllReduce).

    Attributes:
        strategy: evaluated configuration.
        comm_total: AllReduce completion time.
        turnaround: gradient turnaround time (first chunk ready).
        fwd_start: per-layer forward start times.
        fwd_end: per-layer forward end times.
        backward_time: total backward time of the iteration.
        iteration_time: full iteration (forward-completion + backward).
        ideal_time: compute-only iteration time (no communication).
        bubble_time: total idle time between forward layers caused by
            waiting on gradient chunks (paper Fig. 16's "bubbles").
    """

    strategy: Strategy
    comm_total: float
    turnaround: float
    fwd_start: tuple[float, ...]
    fwd_end: tuple[float, ...]
    backward_time: float
    iteration_time: float
    ideal_time: float
    bubble_time: float

    @property
    def normalized_performance(self) -> float:
        """Paper Fig. 13's metric: 1.0 = communication entirely hidden."""
        return self.ideal_time / self.iteration_time

    @property
    def exposed_comm_time(self) -> float:
        """Communication time not hidden behind computation."""
        return self.iteration_time - self.ideal_time


@dataclass
class IterationPipeline:
    """Builds iteration timelines for a fixed workload and system.

    Args:
        network: the DNN workload.
        batch: per-GPU batch size.
        config: system parameters.
        compute: per-GPU compute time model.
        compute_scale: multiplies all compute times (used to model detour
            GPUs donating SM time to forwarding kernels).
    """

    network: NetworkModel
    batch: int
    config: CCubeConfig
    compute: ComputeModel = V100_COMPUTE
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.compute_scale <= 0:
            raise ConfigError("compute_scale must be positive")

    def comm_outcome(self, strategy: Strategy) -> AllReduceOutcome:
        """Simulate the strategy's AllReduce for this network's gradients."""
        return simulate_strategy_comm(
            strategy, float(self.network.total_bytes), self.config
        )

    def run(
        self,
        strategy: Strategy,
        *,
        comm: AllReduceOutcome | None = None,
    ) -> IterationResult:
        """Compose one steady-state iteration timeline.

        Args:
            strategy: evaluated configuration.
            comm: pre-simulated AllReduce outcome (simulated if omitted);
                pass it to amortize the comm simulation over batch sweeps.
        """
        comm = comm or self.comm_outcome(strategy)
        fwd_times = [
            self.compute.forward_time(layer, self.batch) * self.compute_scale
            for layer in self.network.layers
        ]
        backward_time = sum(
            self.compute.backward_time(layer, self.batch) * self.compute_scale
            for layer in self.network.layers
        )
        ideal_time = sum(fwd_times) + backward_time

        if strategy.chains_computation:
            ready = layer_ready_times(
                self.network, comm.schedule, comm.chunk_available
            )
        else:
            ready = [comm.total_time] * len(self.network)

        fwd_start: list[float] = []
        fwd_end: list[float] = []
        bubble = 0.0
        cursor = 0.0
        for i, duration in enumerate(fwd_times):
            start = max(cursor, ready[i])
            if fwd_start:  # idle gap between consecutive layers
                bubble += start - cursor
            fwd_start.append(start)
            cursor = start + duration
            fwd_end.append(cursor)

        iteration_time = fwd_end[-1] + backward_time
        return IterationResult(
            strategy=strategy,
            comm_total=comm.total_time,
            turnaround=comm.turnaround,
            fwd_start=tuple(fwd_start),
            fwd_end=tuple(fwd_end),
            backward_time=backward_time,
            iteration_time=iteration_time,
            ideal_time=ideal_time,
            bubble_time=bubble,
        )


def simulate_iteration(
    network: NetworkModel,
    batch: int,
    strategy: Strategy,
    *,
    config: CCubeConfig | None = None,
    compute: ComputeModel = V100_COMPUTE,
) -> IterationResult:
    """One-call convenience: build the pipeline and run one strategy."""
    pipeline = IterationPipeline(
        network=network,
        batch=batch,
        config=config or CCubeConfig(),
        compute=compute,
    )
    return pipeline.run(strategy)
