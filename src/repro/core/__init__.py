"""The paper's primary contribution: the C-Cube architecture.

- :mod:`repro.core.config` — the evaluated strategies (B, C1, C2, R, CC)
  and system configuration,
- :mod:`repro.core.gradient_queue` — gradient queuing (paper Fig. 9):
  enqueue semaphore, layer-chunk table, layer index counter,
- :mod:`repro.core.pipeline` — the training-iteration timeline that chains
  communication with the *next* iteration's forward computation,
- :mod:`repro.core.trainer` — multi-iteration training simulation and the
  normalized-performance metric of the paper's Fig. 13,
- :mod:`repro.core.patterns` — communication/computation pattern analysis
  (paper Fig. 16 cases 1-3: bubbles and turnaround push-back).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Bandwidth",
    "CCubeConfig",
    "Strategy",
    "GradientQueue",
    "LayerChunkTable",
    "IterationPipeline",
    "IterationResult",
    "simulate_iteration",
    "TrainingConfig",
    "normalized_performance",
    "run_training",
    "PatternCase",
    "analyze_pattern",
    "synthetic_network",
    "ChunkChoice",
    "StrategyChoice",
    "choose_chunks",
    "choose_strategy",
    "BackwardOverlapResult",
    "simulate_backward_overlap",
    "render_iteration_timeline",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Bandwidth": "config",
        "CCubeConfig": "config",
        "Strategy": "config",
        "GradientQueue": "gradient_queue",
        "LayerChunkTable": "gradient_queue",
        "IterationPipeline": "pipeline",
        "IterationResult": "pipeline",
        "simulate_iteration": "pipeline",
        "TrainingConfig": "trainer",
        "normalized_performance": "trainer",
        "run_training": "trainer",
        "PatternCase": "patterns",
        "analyze_pattern": "patterns",
        "synthetic_network": "patterns",
        "ChunkChoice": "autotune",
        "StrategyChoice": "autotune",
        "choose_chunks": "autotune",
        "choose_strategy": "autotune",
        "render_iteration_timeline": "timeline",
        "BackwardOverlapResult": "backward_overlap",
        "simulate_backward_overlap": "backward_overlap",
    },
)
