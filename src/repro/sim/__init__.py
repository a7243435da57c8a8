"""Discrete-event timing simulator.

The simulator executes a directed acyclic graph of operations
(:class:`~repro.sim.dag.Op`) on a set of serializing resources
(:mod:`repro.sim.resources`).  Each op occupies exactly one resource for its
whole service time (store-and-forward at chunk granularity), and may depend
on any number of other ops.  This is exactly the level of detail the paper's
evaluation needs: which physical channel is busy when, and when each chunk
finishes each phase.

A :class:`~repro.sim.dag.Dag` stores its ops column-wise (typed arrays,
a resource-key table, CSR deps); :class:`~repro.sim.dag.Op` is the row a
reader gets when it asks for one.  Emission, embedding and
:meth:`~repro.sim.engine.DagSimulator.run` work on the columns and build
no rows.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Dag",
    "Label",
    "Op",
    "DagSimulator",
    "SimResult",
    "Channel",
    "Processor",
    "Resource",
    "TraceRecord",
    "utilization",
    "critical_path",
    "phase_overlap",
    "phase_windows",
    "render_gantt",
    "resource_utilization",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Dag": "dag",
        "Label": "dag",
        "Op": "dag",
        "DagSimulator": "engine",
        "SimResult": "engine",
        "Channel": "resources",
        "Processor": "resources",
        "Resource": "resources",
        "critical_path": "analysis",
        "phase_overlap": "analysis",
        "phase_windows": "analysis",
        "render_gantt": "analysis",
        "resource_utilization": "analysis",
        "TraceRecord": "trace",
        "utilization": "trace",
    },
)
