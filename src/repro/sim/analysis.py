"""Post-hoc analysis of simulated schedules.

Tools downstream users need when studying a collective schedule:

- :func:`critical_path` — the dependency/queueing chain that determines
  the makespan (which ops to optimize),
- :func:`resource_utilization` — per-resource busy fraction over the run
  (which channels are the bottleneck, which sit idle),
- :func:`phase_overlap` — how much of the run two phases were active
  simultaneously (quantifies Observation #1/#2's chaining directly),
- :func:`render_gantt` — a plain-text Gantt chart of a small run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.errors import SimulationError
from repro.sim.dag import Dag, Phase
from repro.sim.engine import SimResult


@dataclass(frozen=True)
class CriticalPathStep:
    """One op on the critical path.

    Attributes:
        op_id: the op.
        resource: where it ran.
        start / finish: its execution window.
        blocked_by: the op (dependency or prior occupant of the same
            resource) whose completion released this op, or ``None`` for
            the path's first op.
    """

    op_id: int
    resource: Hashable
    start: float
    finish: float
    blocked_by: int | None


def _check_match(dag: Dag, result: SimResult) -> None:
    if len(result.start) != len(dag.ops):
        raise SimulationError(
            f"result has {len(result.start)} ops but the DAG has "
            f"{len(dag.ops)} — pass the DAG that was actually simulated "
            "(after embedding, that is the physical DAG)"
        )


def critical_path(dag: Dag, result: SimResult) -> list[CriticalPathStep]:
    """Trace back from the last-finishing op through whatever released
    each op (a data dependency or the previous op on its resource)."""
    _check_match(dag, result)
    if not dag.ops:
        return []
    # Prior occupant per resource, from the trace.
    by_resource: dict[Hashable, list] = {}
    for rec in result.trace:
        by_resource.setdefault(rec.resource, []).append(rec)
    for records in by_resource.values():
        records.sort(key=lambda r: r.start)
    prev_on_resource: dict[int, int | None] = {}
    for records in by_resource.values():
        previous = None
        for rec in records:
            prev_on_resource[rec.op_id] = (
                previous.op_id if previous is not None else None
            )
            previous = rec

    path: list[CriticalPathStep] = []
    current = max(range(len(dag.ops)), key=lambda i: result.finish[i])
    eps = 1e-15
    while current is not None:
        op = dag.ops[current]
        start = result.start[current]
        blocker: int | None = None
        # Whichever finished exactly at our start released us.
        candidates = list(op.deps)
        prior = prev_on_resource.get(current)
        if prior is not None:
            candidates.append(prior)
        for cand in candidates:
            if abs(result.finish[cand] - start) <= eps:
                blocker = cand
                break
        if blocker is None and candidates:
            blocker = max(candidates, key=lambda i: result.finish[i])
            if result.finish[blocker] + eps < start:
                blocker = None  # started at t=0 or after idle gap
        path.append(
            CriticalPathStep(
                op_id=current,
                resource=op.resource,
                start=start,
                finish=result.finish[current],
                blocked_by=blocker,
            )
        )
        current = blocker
    path.reverse()
    return path


def resource_utilization(
    dag: Dag, result: SimResult
) -> dict[Hashable, float]:
    """Busy fraction of every resource over [0, makespan]."""
    _check_match(dag, result)
    if result.makespan <= 0:
        return {key: 0.0 for key in dag.resources()}
    busy: dict[Hashable, float] = {key: 0.0 for key in dag.resources()}
    for rec in result.trace:
        busy[rec.resource] += rec.finish - rec.start
    return {key: value / result.makespan for key, value in busy.items()}


def phase_windows(
    dag: Dag, result: SimResult
) -> dict[Phase, tuple[float, float]]:
    """(first start, last finish) of each phase present in the DAG."""
    _check_match(dag, result)
    windows: dict[Phase, tuple[float, float]] = {}
    for op in dag.ops:
        start = result.start[op.op_id]
        finish = result.finish[op.op_id]
        if op.phase in windows:
            lo, hi = windows[op.phase]
            windows[op.phase] = (min(lo, start), max(hi, finish))
        else:
            windows[op.phase] = (start, finish)
    return windows


def phase_overlap(
    dag: Dag, result: SimResult, first: Phase, second: Phase
) -> float:
    """Length of time both phases had ops in flight (window intersection).

    For the baseline tree this is ~0 between REDUCE and BROADCAST; for
    the overlapped tree it is most of the run — a direct measurement of
    the paper's phase chaining.
    """
    windows = phase_windows(dag, result)
    if first not in windows or second not in windows:
        raise SimulationError(
            f"phases {first}/{second} not both present in the DAG"
        )
    lo = max(windows[first][0], windows[second][0])
    hi = min(windows[first][1], windows[second][1])
    return max(0.0, hi - lo)


def render_gantt(
    dag: Dag,
    result: SimResult,
    *,
    max_resources: int = 24,
) -> str:
    """Plain-text 72-column Gantt chart, one row per resource; small runs."""
    if result.makespan <= 0:
        return "(empty run)"
    resources = sorted(dag.resources(), key=str)[:max_resources]
    width = 72
    scale = width / result.makespan
    lines = []
    for resource in resources:
        row = [" "] * width
        for rec in result.trace:
            if rec.resource != resource:
                continue
            lo = min(width - 1, int(rec.start * scale))
            hi = min(width, max(lo + 1, int(rec.finish * scale)))
            for i in range(lo, hi):
                row[i] = "#"
        lines.append(f"{str(resource):<24} |{''.join(row)}|")
    return "\n".join(lines)
