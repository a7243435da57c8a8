"""Contention analysis and an α-β critical-path lower bound, statically.

Every :mod:`repro.synth` candidate used to pay a full DES run before it
could be ranked.  This module computes, from the plan DAG and the
topology's α-β link costs alone, a *certified lower bound* on the
simulated makespan:

- **critical path** — longest dependence chain through the lowered DAG,
  each op weighted by the exact service time its resource would charge
  (``alpha + beta * nbytes`` on channels, explicit durations on
  processors).  The DES respects every dependence and never shrinks a
  service time, so no schedule finishes the chain earlier.
- **channel busy time** — each channel serves its ops serially, and
  every channel op is a payload-carrying transfer counted by
  :func:`~repro.plan.lowering.simulate_plan`'s makespan, so the busiest
  channel's total service time also bounds the makespan from below.

``lower_bound = max(critical_path, busiest_channel)`` — sound by
construction (`LB <= simulate_plan(...).total_time` always), which is
what lets the autotuner discard dominated candidates *before* the DES
ever runs.

The same per-link busy accounting powers advisory contention
diagnostics: ``PLAN020`` (distinct trees sharing one directed lane —
the overlap-killing conflict the paper's Observation #2 is about) and
``PLAN021`` (strongly imbalanced lane usage).  Both are advisory and
never fail an analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError
from ..plan.ir import K_SEND, Plan
from ..plan.lowering import lower_to_dag, physical_resources
from ..plan.verifier import WirePairing
from ..sim.resources import Channel
from ..topology.base import PhysicalTopology
from ..topology.routing import Router
from .diagnostics import Diagnostic, severity_of

__all__ = [
    "ContentionReport",
    "analyze_contention",
    "static_lower_bound",
]


@dataclass
class ContentionReport:
    """Static timing/contention profile of one compiled plan.

    Attributes:
        lower_bound: certified makespan lower bound (seconds).
        critical_path: the α-β critical-path component of the bound.
        busy_bound: the busiest-channel component of the bound.
        link_busy: per directed channel resource key, total busy
            seconds.
        shared_lanes: channel key -> sorted tree ids contending on it
            (only keys with 2+ trees).
        diagnostics: advisory findings (``PLAN020``/``PLAN021``).
    """

    lower_bound: float = 0.0
    critical_path: float = 0.0
    busy_bound: float = 0.0
    link_busy: dict = field(default_factory=dict)
    shared_lanes: dict = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"contention: lower bound {self.lower_bound:.3e}s "
            f"(critical path {self.critical_path:.3e}s, "
            f"busiest channel {self.busy_bound:.3e}s), "
            f"{len(self.link_busy)} channel(s)"
        ]
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)


def analyze_contention(
    plan: Plan,
    topo: PhysicalTopology,
    *,
    router: Router | None = None,
    pairing: WirePairing | None = None,
) -> ContentionReport:
    """Compute the static lower bound and contention advisories.

    An unlegalized plan is first compiled exactly the way
    :func:`~repro.plan.lowering.simulate_plan` would, so the bound is
    sound against the same simulation the tuner runs.  ``pairing`` is a
    legalized ``plan``'s wire pairing (its verification report's), which
    the lowering then reuses.
    """
    if not plan.legalized:
        from ..plan.passes import compile_plan

        plan, _ = compile_plan(plan, topo, router=router)
        pairing = None
    dag = lower_to_dag(plan, pairing=pairing)
    resources = physical_resources(dag, topo)
    ops = list(dag)  # one row per op, read many times below
    service = [resources[op.resource].service_time(op) for op in ops]

    # Earliest-finish times under dependences alone (infinite servers):
    # a certified lower bound on every per-op finish time, computed by
    # iterative DFS because DES deps may reference later-created ops.
    n = len(ops)
    finish: list[float | None] = [None] * n
    for root in range(n):
        if finish[root] is not None:
            continue
        stack: list[tuple[int, bool]] = [(root, False)]
        on_path: set[int] = set()
        while stack:
            op_id, expanded = stack.pop()
            if expanded:
                on_path.discard(op_id)
                best = 0.0
                for d in ops[op_id].deps:
                    f = finish[d]
                    assert f is not None
                    if f > best:
                        best = f
                finish[op_id] = best + service[op_id]
                continue
            if finish[op_id] is not None:
                continue
            if op_id in on_path:
                raise PlanError(
                    f"dependency cycle through DES op {op_id} — "
                    "lower bound undefined on a deadlocked plan"
                )
            on_path.add(op_id)
            stack.append((op_id, True))
            for d in ops[op_id].deps:
                if finish[d] is None:
                    stack.append((d, False))

    # The makespan counts payload transfers and zero-duration markers —
    # same rule as simulate_plan's total_time.
    counted = [
        finish[i]
        for i, op in enumerate(ops)
        if op.nbytes > 0 or op.duration == 0.0
    ]
    critical_path = max(counted) if counted else 0.0

    # Channels serve serially, and every channel op is makespan-counted,
    # so per-channel busy sums are lower bounds too.  Processor busy
    # time is NOT a bound: forwarding ops may finish after the last
    # transfer and are excluded from the makespan.
    report = ContentionReport(critical_path=critical_path)
    for i, op in enumerate(ops):
        if isinstance(resources[op.resource], Channel):
            report.link_busy[op.resource] = (
                report.link_busy.get(op.resource, 0.0) + service[i]
            )
    report.busy_bound = (
        max(report.link_busy.values()) if report.link_busy else 0.0
    )
    report.lower_bound = max(report.critical_path, report.busy_bound)

    # Advisory contention findings on the compiled plan's NVLink hops.
    users: dict[tuple, set[int]] = {}
    pcie = plan.media.index("pcie")
    for i, kind in enumerate(plan.kind_code):
        if kind != K_SEND or plan.medium_code[i] == pcie:
            continue
        key = ("chan", plan.rank[i], plan.peer[i], plan.lane[i])
        users.setdefault(key, set()).add(plan.tree[i])
    for key, trees in sorted(users.items(), key=repr):
        if len(trees) > 1:
            report.shared_lanes[key] = sorted(trees)
            busy = report.link_busy.get(key, 0.0)
            report.diagnostics.append(Diagnostic(
                code="PLAN020",
                severity=severity_of("PLAN020"),
                message=(
                    f"link {key[1]}->{key[2]} lane {key[3]}: trees "
                    f"{sorted(trees)} contend for one directed lane "
                    f"({busy:.3e}s busy) — overlap degrades to serial"
                ),
            ))
    by_link: dict[tuple[int, int], list[float]] = {}
    for key, busy in report.link_busy.items():
        # NVLink lanes only: ("chan", u, v, lane).  PCIe keys are
        # 3-tuples and have nothing to balance.
        if len(key) == 4 and key[0] == "chan":
            by_link.setdefault((key[1], key[2]), []).append(busy)
    for (u, v), lanes in sorted(by_link.items()):
        if len(lanes) < 2:
            continue
        mean = sum(lanes) / len(lanes)
        if mean > 0 and max(lanes) > 2.0 * mean:
            report.diagnostics.append(Diagnostic(
                code="PLAN021",
                severity=severity_of("PLAN021"),
                message=(
                    f"link {u}->{v}: busiest lane carries "
                    f"{max(lanes):.3e}s of {sum(lanes):.3e}s total — "
                    "lane assignment is imbalanced"
                ),
            ))
    return report


def static_lower_bound(
    plan: Plan,
    topo: PhysicalTopology,
    *,
    router: Router | None = None,
) -> float:
    """Certified lower bound on ``simulate_plan(...).total_time``."""
    return analyze_contention(plan, topo, router=router).lower_bound
