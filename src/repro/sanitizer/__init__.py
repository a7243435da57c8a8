"""Correctness tooling for the emulated device runtime.

A dynamic vector-clock race detector plus wait-graph analyses
over the sync primitives of :mod:`repro.runtime.sync` and the chunk
accesses of :mod:`repro.runtime.memory`.  See DESIGN §8 for the
happens-before model and the mapping onto CUDA compute-sanitizer.

Entry points:

- ``with tracing() as t: ...`` — trace a scope, then ``t.report``;
- ``pytest --sanitize`` — run the whole suite traced (conftest);
- ``repro sanitize run --all`` — trace every shipped runtime plus the
  deliberately broken seeded kernels (CLI).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Access",
    "BlockedWait",
    "MemoryState",
    "PostOrderCycleFinding",
    "RaceFinding",
    "SanitizerReport",
    "Tracer",
    "VectorClock",
    "WaitCycleFinding",
    "active",
    "pop",
    "push",
    "render_report_dict",
    "tracing",
    "run_scenario",
    "scenario_names",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "active": "hooks",
        "pop": "hooks",
        "push": "hooks",
        "BlockedWait": "lockgraph",
        "PostOrderCycleFinding": "lockgraph",
        "WaitCycleFinding": "lockgraph",
        "Access": "races",
        "MemoryState": "races",
        "RaceFinding": "races",
        "SanitizerReport": "report",
        "render_report_dict": "report",
        "Tracer": "tracer",
        "tracing": "tracer",
        "VectorClock": "vectorclock",
        # The scenario registry pulls in the full runtime.
        "run_scenario": "scenarios",
        "scenario_names": "scenarios",
        "SCENARIOS": "scenarios",
        "Expectation": "scenarios",
    },
)

