"""Experiment harness: one module per paper figure, ablation and extension.

Every module exposes ``run(...)`` returning structured rows and a
``format_table(rows)`` rendering the same rows the paper's figure plots.
:mod:`repro.experiments.registry` lists every experiment once, with the
paper claims its default run must satisfy; the runner, the CSV export,
the certificate and ``benchmarks/test_claims.py`` all read it.  The
registry imports every experiment, so this package does not import it.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ablations",
    "certify",
    "export",
    "ext_algorithms",
    "ext_dgx2",
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
    "registry",
    "runner",
]

# Every export is a submodule, which lazy_exports resolves by name.
__getattr__, __dir__ = lazy_exports(__name__, {})
