"""Plan transformation passes: route legalization, lanes, pipelining.

``legalize_routes`` maps every logical transfer onto the physical
topology.  Where the endpoints share no NVLink it chooses **per edge**
between a multi-hop NVLink detour and the PCIe host path by comparing
their alpha-beta costs — the ROADMAP's routing-policy item (the old
embedding globally preferred one or the other).  Detours materialize as
relay thread blocks (one forwarding kernel per route, as in the
runtime's static detour routing); PCIe fallbacks just retag the
transfer's medium.

``assign_lanes`` spreads trees over parallel physical lanes
(``tree % lane_count`` per hop, the same rule the embedding applies)
and reports link conflicts — distinct trees sharing one lane, the
contention that forbids overlapping a double tree without the DGX-1's
duplicated links.

``pipeline_chunks`` splits every chunk into ``factor`` sub-chunks so
transfers pipeline more finely without changing the algorithm.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..codes import PHASES
from ..collectives.chunking import split_bytes
from ..errors import PlanError, RoutingError
from ..topology.base import PhysicalTopology
from ..topology.dgx1 import PCIE_ALPHA, PCIE_BANDWIDTH
from ..topology.routing import Router
from .ir import K_COPY, K_RECV, K_SEND, RELAY_RECV, RELAY_SEND, Plan

#: Origin of the relay legs route legalization inserts.
LEGALIZE_ORIGIN = "pass:legalize_routes"
#: Origin of the relay legs :func:`relay_edges` inserts.
RELAY_ORIGIN = "pass:relay_edges"

__all__ = [
    "EdgeChoice",
    "LegalizeReport",
    "LaneReport",
    "CompileReports",
    "legalize_routes",
    "relay_edges",
    "assign_lanes",
    "pipeline_chunks",
    "compile_plan",
]


@dataclass(frozen=True)
class EdgeChoice:
    """How one logical edge was realized physically."""

    src: int
    dst: int
    choice: str  # "direct" | "detour" | "pcie"
    path: tuple[int, ...]
    detour_cost: float | None = None
    pcie_cost: float | None = None


@dataclass
class LegalizeReport:
    """What route legalization did."""

    choices: dict[tuple[int, int], EdgeChoice] = field(default_factory=dict)
    detour_transfers: int = 0
    pcie_transfers: int = 0

    @property
    def notes(self) -> list[str]:
        out = []
        for (u, v), c in sorted(self.choices.items()):
            if c.choice == "direct":
                continue
            cost = (
                f" (detour {c.detour_cost:.2e}s vs pcie {c.pcie_cost:.2e}s)"
                if c.detour_cost is not None and c.pcie_cost is not None
                else ""
            )
            path = "->".join(str(n) for n in c.path) if c.path else "host"
            out.append(f"edge {u}->{v}: {c.choice} via {path}{cost}")
        return out


@dataclass
class LaneReport:
    """Lane assignment outcome."""

    assignments: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    conflicts: list[str] = field(default_factory=list)

    @property
    def notes(self) -> list[str]:
        return [f"lane conflict: {c}" for c in self.conflicts]


@dataclass
class CompileReports:
    """Bundle of per-pass reports from :func:`compile_plan`."""

    legalize: LegalizeReport
    lanes: LaneReport

    @property
    def notes(self) -> list[str]:
        return self.legalize.notes + self.lanes.notes


def _detour_cost(
    topo: PhysicalTopology, path: tuple[int, ...], nbytes: float
) -> float:
    cost = 0.0
    for a, b in zip(path, path[1:]):
        spec = topo.link(a, b, 0)
        cost += spec.alpha + spec.beta * nbytes
    return cost


def _add_detoured(
    new_plan: Plan, plan: Plan, i: int, deps, path: tuple[int, ...],
    origin: str,
) -> int:
    """Copy transfer op ``i`` onto the multi-hop ``path``; returns the
    copied endpoint's id.  The sender targets the first intermediate,
    each intermediate runs a relay thread block (recv + forward), the
    receiver's peer is the last intermediate; all legs share
    ``flow=(src, dst)``."""
    src, dst = plan.endpoints(i)
    flow = new_plan.flow_index((src, dst))
    if plan.kind_code[i] != K_SEND:  # RECV / REDUCE endpoint
        return new_plan.add_from(plan, i, deps, peer=path[-2], flow_id=flow)
    new_id = new_plan.add_from(plan, i, deps, peer=path[1], flow_id=flow)
    relay_tb = new_plan.tb_index((
        "relay", src, dst, plan.tree[i], PHASES[plan.phase_code[i]].value,
    ))
    for hop in range(1, len(path) - 1):
        recv = new_plan.add_from(
            plan, i, (), rank=path[hop], kind_code=K_RECV,
            peer=path[hop - 1], flow_id=flow, tb_id=relay_tb,
            relay=RELAY_RECV, origin=origin,
        )
        new_plan.add_from(
            plan, i, (recv,), rank=path[hop], peer=path[hop + 1],
            flow_id=flow, tb_id=relay_tb, relay=RELAY_SEND, origin=origin,
        )
    return new_id


def relay_edges(plan: Plan, detour_map: dict[tuple[int, int], int]) -> Plan:
    """Route every transfer over a mapped edge through its relay:
    ``detour_map`` maps ``(child, parent)`` to the intermediate GPU for
    both directions (the tree runtime's static detours); no other
    transfer is touched."""
    new_plan = plan.derive()
    offsets, dep_ids = plan.dep_offsets, plan.dep_ids
    id_map = array("i")
    for i, code in enumerate(plan.kind_code):
        deps = map(id_map.__getitem__, dep_ids[offsets[i]:offsets[i + 1]])
        via = None
        if code != K_COPY:
            src, dst = plan.endpoints(i)
            via = detour_map.get((src, dst), detour_map.get((dst, src)))
        if via is None:
            id_map.append(new_plan.add_from(plan, i, deps))
        else:
            id_map.append(_add_detoured(
                new_plan, plan, i, deps, (src, via, dst), RELAY_ORIGIN
            ))
    return new_plan


def legalize_routes(
    plan: Plan,
    topo: PhysicalTopology,
    *,
    router: Router | None = None,
) -> tuple[Plan, LegalizeReport]:
    """Map every transfer onto the physical topology.

    Per missing link, the cheaper of the NVLink detour (sum of per-hop
    alpha-beta costs) and the PCIe host path (the DGX-1's PCIe alpha and
    bandwidth) wins; detours insert relay
    thread blocks, PCIe fallbacks retag ``medium="pcie"``.

    Returns a new, ``legalized`` plan plus the report of per-edge
    choices.  Raises :class:`PlanError` when an edge has neither route.
    """
    if plan.legalized:
        return plan, LegalizeReport()
    router = router or Router(topo)
    report = LegalizeReport()

    def choose(src: int, dst: int, nbytes: float) -> EdgeChoice:
        key = (src, dst)
        if key in report.choices:
            return report.choices[key]
        if topo.lane_count(src, dst) > 0:
            choice = EdgeChoice(src, dst, "direct", (src, dst))
        else:
            pcie_cost = PCIE_ALPHA + (1.0 / PCIE_BANDWIDTH) * nbytes
            try:
                path = tuple(router.route(src, dst))
            except RoutingError:
                path = ()
            if path and len(path) > 2:
                det = _detour_cost(topo, path, nbytes)
                if det <= pcie_cost:
                    choice = EdgeChoice(src, dst, "detour", path, det,
                                        pcie_cost)
                else:
                    choice = EdgeChoice(src, dst, "pcie", (), det, pcie_cost)
            elif path:
                choice = EdgeChoice(src, dst, "direct", path)
            else:
                choice = EdgeChoice(src, dst, "pcie", (), None, pcie_cost)
        report.choices[key] = choice
        return choice

    new_plan = plan.derive(legalized=True)
    pcie = new_plan.media.index("pcie")
    offsets, dep_ids = plan.dep_offsets, plan.dep_ids
    # old op id -> new op id; every dep is a backward reference, so it
    # is mapped by the time its dependent is copied.
    id_map = array("i")
    for i, code in enumerate(plan.kind_code):
        deps = map(id_map.__getitem__, dep_ids[offsets[i]:offsets[i + 1]])
        if code == K_COPY:
            id_map.append(new_plan.add_from(plan, i, deps))
            continue
        src, dst = plan.endpoints(i)
        choice = choose(src, dst, plan.payload[i])
        if choice.choice == "direct":
            id_map.append(new_plan.add_from(plan, i, deps))
            continue
        if choice.choice == "pcie":
            id_map.append(
                new_plan.add_from(plan, i, deps, medium_code=pcie)
            )
            if code == K_SEND:
                report.pcie_transfers += 1
            continue
        if code == K_SEND:
            report.detour_transfers += 1
        id_map.append(
            _add_detoured(new_plan, plan, i, deps, choice.path,
                          LEGALIZE_ORIGIN)
        )
    if report.detour_transfers or report.pcie_transfers:
        new_plan.notes.append(
            f"legalized on {topo.name!r}: {report.detour_transfers} "
            f"detoured, {report.pcie_transfers} pcie transfer(s)"
        )
    return new_plan, report


def assign_lanes(
    plan: Plan, topo: PhysicalTopology
) -> tuple[Plan, LaneReport]:
    """Assign each NVLink hop its physical lane (``tree % lane_count``).

    Returns a copy of the plan whose ``lane`` column is rewritten (the
    other columns are copied as they are), plus a report of per-link
    lane usage and conflicts (two or more trees forced onto one lane of
    one directed link — the contention the overlap ablation measures).
    """
    plan = plan.copy()
    report = LaneReport()
    users: dict[tuple[int, int, int], set[int]] = {}
    lane_counts: dict[tuple[int, int], int] = {}
    lanes_col, trees = plan.lane, plan.tree
    pcie = plan.media.index("pcie")
    for i, code in enumerate(plan.kind_code):
        if code == K_COPY or plan.medium_code[i] == pcie:
            continue
        link = plan.endpoints(i)
        lanes = lane_counts.get(link)
        if lanes is None:
            lanes = lane_counts[link] = topo.lane_count(*link)
        if lanes == 0:
            continue
        tree = trees[i]
        lane = tree % lanes
        report.assignments.setdefault(link, set()).add(lane)
        users.setdefault((*link, lane), set()).add(tree)
        lanes_col[i] = lane
    for (u, v, lane), used_by in sorted(users.items()):
        if len(used_by) > 1:
            report.conflicts.append(
                f"link {u}->{v} lane {lane} shared by trees "
                f"{sorted(used_by)}"
            )
    return plan, report


def pipeline_chunks(plan: Plan, factor: int) -> Plan:
    """Split every chunk into ``factor`` equal sub-chunks.

    Single-chunk ops are replicated per sub-chunk (deps mapped
    sub-to-sub, so sub-pipelines stay independent); aggregated
    ``chunk_set`` transfers and chunk-less markers keep one op whose
    deps fan in over every sub-chunk.  Every op keeps its label's text.
    """
    if factor < 1:
        raise PlanError("pipeline factor must be >= 1")
    if factor == 1:
        return plan
    new_sizes: list[float] = []
    for size in plan.chunk_sizes:
        new_sizes.extend(split_bytes(size, factor))
    offsets: list[float] = []
    acc = 0.0
    for size in new_sizes:
        offsets.append(acc)
        acc += size

    new_plan = plan.derive(
        chunk_sizes=tuple(new_sizes),
        chunk_offsets=tuple(offsets),
        notes=list(plan.notes) + [f"pipelined x{factor}"],
    )
    # old op id -> new ids (length `factor` for split ops, else 1).
    id_map: list[list[int]] = []

    def map_deps(deps, j: int | None) -> list[int]:
        out: list[int] = []
        for d in deps:
            mapped = id_map[d]
            if j is not None and len(mapped) == factor:
                out.append(mapped[j])
            else:
                out.extend(mapped)
        return out

    offsets, dep_ids = plan.dep_offsets, plan.dep_ids
    for i, code in enumerate(plan.kind_code):
        deps = dep_ids[offsets[i]:offsets[i + 1]]
        label = plan.label_of(i)
        chunk_set = plan.chunk_sets.get(i)
        chunk = plan.chunk[i]
        if chunk_set:
            subs = tuple(
                c * factor + j for c in sorted(chunk_set)
                for j in range(factor)
            )
            id_map.append([new_plan.add_from(
                plan, i, map_deps(deps, None), chunk=min(subs),
                chunk_set=subs, label=label,
            )])
        elif chunk >= 0:
            id_map.append([
                new_plan.add_from(
                    plan, i, map_deps(deps, j), chunk=chunk * factor + j,
                    nbytes=(
                        new_sizes[chunk * factor + j] if code != K_COPY
                        else 0.0
                    ),
                    label=f"{label}.{j}" if label else "",
                )
                for j in range(factor)
            ])
        else:  # chunk-less marker (phase barrier)
            id_map.append([new_plan.add_from(
                plan, i, map_deps(deps, None), nbytes=0.0, label=label,
            )])
    return new_plan


def compile_plan(
    plan: Plan,
    topo: PhysicalTopology,
    *,
    router: Router | None = None,
    pipeline: int = 1,
) -> tuple[Plan, CompileReports]:
    """Full pipeline: optional chunk split, legalize routes, assign lanes."""
    if pipeline > 1:
        plan = pipeline_chunks(plan, pipeline)
    plan, leg = legalize_routes(plan, topo, router=router)
    plan, lanes = assign_lanes(plan, topo)
    return plan, CompileReports(legalize=leg, lanes=lanes)
