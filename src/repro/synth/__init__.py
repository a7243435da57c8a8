"""Topology-driven plan synthesis: generate collective plans, don't
just legalize hand-written ones.

Three layers:

- :mod:`repro.synth.search` — construct candidate :class:`repro.plan.ir.Plan`s
  directly from any :class:`repro.topology.base.PhysicalTopology`:
  greedy ForestColl-style edge-disjoint spanning-tree packing,
  hill-climbed double-tree embedding, ring-from-Hamiltonian-cycle
  extraction, and a hypercube exchange where the fabric supports it.
  Every candidate must pass ``compile_plan`` -> ``verify_plan`` (whose
  happens-before proof covers ordering) before it is ever returned.
- :mod:`repro.synth.tune` — the plan-IR autotuner: sweep algorithm
  choice x pipeline chunk factor x chunking per message size, score
  with ``simulate_plan``, pick per-size winners NCCL byte-threshold
  style.  Its entry point is ``repro.synth.tune.tune``; the package
  does not re-export it, so importing :mod:`repro.synth` (or
  :mod:`repro.synth.fallback`) loads no autotuner.
- :mod:`repro.synth.store` — deterministic JSON cache of tuned winners
  keyed by (topology fingerprint, message size).

:mod:`repro.synth.fallback` turns an infeasible survivor set (no
double-tree pair exists) into a *verified synthesized plan* instead of
a :class:`repro.errors.ConfigError`, and :mod:`repro.synth.fabrics`
generates the seeded random fabrics the nightly soak chews through.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SynthCandidate",
    "build_forest_plan",
    "effective_gpu_topology",
    "hamiltonian_cycle",
    "pack_binary_forest",
    "synthesize_candidates",
    "synthesize_plan",
    "SizeWinner",
    "SweepEntry",
    "TuneResult",
    "format_tune_table",
    "PlanStore",
    "StoredPlan",
    "topology_fingerprint",
    "random_fabric",
    "topology_to_json",
    "topology_from_json",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "random_fabric": "fabrics",
        "topology_from_json": "fabrics",
        "topology_to_json": "fabrics",
        "SynthCandidate": "search",
        "build_forest_plan": "search",
        "effective_gpu_topology": "search",
        "hamiltonian_cycle": "search",
        "pack_binary_forest": "search",
        "synthesize_candidates": "search",
        "synthesize_plan": "search",
        "PlanStore": "store",
        "StoredPlan": "store",
        "topology_fingerprint": "store",
        "SizeWinner": "tune",
        "SweepEntry": "tune",
        "TuneResult": "tune",
        "format_tune_table": "tune",
    },
)
