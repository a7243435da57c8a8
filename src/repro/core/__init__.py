"""The paper's primary contribution: the C-Cube architecture.

- :mod:`repro.core.config` — the evaluated strategies (B, C1, C2, R, CC)
  and system configuration,
- :mod:`repro.core.gradient_queue` — gradient queuing (paper Fig. 9):
  when each layer's chunks have all arrived, so its forward may start,
- :mod:`repro.core.pipeline` — the training-iteration timeline that chains
  communication with the *next* iteration's forward computation,
- :mod:`repro.core.patterns` — communication/computation pattern analysis
  (paper Fig. 16 cases 1-3: bubbles and turnaround push-back).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Bandwidth",
    "CCubeConfig",
    "Strategy",
    "IterationPipeline",
    "IterationResult",
    "simulate_iteration",
    "PatternCase",
    "analyze_pattern",
    "synthetic_network",
    "StrategyChoice",
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
        "IterationPipeline": "pipeline",
        "IterationResult": "pipeline",
        "simulate_iteration": "pipeline",
        "PatternCase": "patterns",
        "analyze_pattern": "patterns",
        "synthetic_network": "patterns",
        "StrategyChoice": "autotune",
        "choose_strategy": "autotune",
        "render_iteration_timeline": "timeline",
        "BackwardOverlapResult": "backward_overlap",
        "simulate_backward_overlap": "backward_overlap",
    },
)
