"""Collective plan IR: compile collectives to verifiable primitive ops.

The :mod:`repro.plan` subsystem expresses every collective as a *plan* —
a flat program of chunk-level send/recv/reduce/copy primitives grouped
into per-GPU thread blocks (the GC3 idea applied to this codebase):

- :mod:`~repro.plan.ir` — :class:`Plan`, stored column-wise (typed
  arrays, CSR deps, label templates), and :class:`PlanOp`, the row a
  reader gets from ``plan.ops`` — no layer below builds one per op;
- :mod:`~repro.plan.builders` — lower ring, tree, double-tree, and
  halving-doubling into plans bit-compatible with the hand-written
  runtimes;
- :mod:`~repro.plan.passes` — physical route legalization (per-edge
  NVLink-detour vs PCIe by cost model), lane assignment with conflict
  detection, chunk pipelining;
- :mod:`~repro.plan.verifier` — static exactly-once reduce/broadcast,
  deadlock-freedom, race and physical-legality checking; its report's
  wire pairing is the one the interpreter and the lowering reuse;
- :mod:`~repro.plan.interpreter` — execute any legal plan on the
  thread-backed runtime (fault-plan aware);
- :mod:`~repro.plan.lowering` — lower the same plan to the
  discrete-event simulator.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Plan",
    "PlanOp",
    "OpKind",
    "SEND",
    "RECV",
    "REDUCE",
    "COPY",
    "BUILDERS",
    "build_plan",
    "build_ring_plan",
    "build_tree_plan",
    "build_double_tree_plan",
    "build_halving_doubling_plan",
    "verify_plan",
    "match_wires",
    "execution_order",
    "VerifyReport",
    "PlanInterpreter",
    "PlanRunReport",
    "default_plan_layout",
    "plan_reduce_order",
    "lower_to_dag",
    "simulate_plan",
    "PlanOutcome",
    "legalize_routes",
    "assign_lanes",
    "pipeline_chunks",
    "compile_plan",
    "CompileReports",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "BUILDERS": "builders",
        "build_double_tree_plan": "builders",
        "build_halving_doubling_plan": "builders",
        "build_plan": "builders",
        "build_ring_plan": "builders",
        "build_tree_plan": "builders",
        "PlanInterpreter": "interpreter",
        "PlanRunReport": "interpreter",
        "default_plan_layout": "interpreter",
        "plan_reduce_order": "interpreter",
        "COPY": "ir",
        "RECV": "ir",
        "REDUCE": "ir",
        "SEND": "ir",
        "OpKind": "ir",
        "Plan": "ir",
        "PlanOp": "ir",
        "PlanOutcome": "lowering",
        "lower_to_dag": "lowering",
        "simulate_plan": "lowering",
        "CompileReports": "passes",
        "assign_lanes": "passes",
        "compile_plan": "passes",
        "legalize_routes": "passes",
        "pipeline_chunks": "passes",
        "VerifyReport": "verifier",
        "execution_order": "verifier",
        "match_wires": "verifier",
        "verify_plan": "verifier",
    },
)
