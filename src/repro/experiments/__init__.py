"""Experiment harness: one module per paper figure.

Every module exposes ``run(...)`` returning structured rows and a
``format_table(rows)`` rendering the same rows the paper's figure plots.
``repro.experiments.runner`` executes everything and prints a full report
(the benchmarks under ``benchmarks/`` call the same entry points).

| Paper figure | Module |
|---|---|
| Fig. 1  | :mod:`repro.experiments.fig01_allreduce_ratio` |
| Fig. 2  | :mod:`repro.experiments.fig02_overlap_comparison` (quantified) |
| Fig. 3  | :mod:`repro.experiments.fig03_invocation` |
| Fig. 4  | :mod:`repro.experiments.fig04_model_ratio` |
| Fig. 12 | :mod:`repro.experiments.fig12_comm_perf` |
| Fig. 13 | :mod:`repro.experiments.fig13_overall` |
| Fig. 14 | :mod:`repro.experiments.fig14_scaleout` |
| Fig. 15 | :mod:`repro.experiments.fig15_detour` |
| Fig. 16 | :mod:`repro.experiments.fig16_patterns` |
| Fig. 17 | :mod:`repro.experiments.fig17_resnet_layers` |
| —       | :mod:`repro.experiments.ablations` |
| —       | :mod:`repro.experiments.ext_dgx2` (NVSwitch extension) |
| —       | :mod:`repro.experiments.ext_hierarchical` (multi-node extension) |
"""

from repro._lazy import lazy_exports

__all__ = [
    "ablations",
    "certify",
    "export",
    "ext_algorithms",
    "ext_dgx2",
    "ext_elastic",
    "ext_hierarchical",
    "ext_plans",
    "ext_sensitivity",
    "ext_synth",
    "ext_tree_search",
    "ext_workloads",
    "fig01_allreduce_ratio",
    "fig02_overlap_comparison",
    "fig03_invocation",
    "fig04_model_ratio",
    "fig05_walkthrough",
    "fig12_comm_perf",
    "fig13_overall",
    "fig14_scaleout",
    "fig15_detour",
    "fig16_patterns",
    "fig17_resnet_layers",
    "runner",
]

# Every export is a submodule, which lazy_exports resolves by name.
__getattr__, __dir__ = lazy_exports(__name__, {})
