"""`analyze_plan`: one call running every static analysis on a plan.

Combines the structural verifier (``PLAN001``-``PLAN006``), the static
ordering prover (``PLAN010``/``PLAN011``), the write-after-read aliasing
check (``PLAN012`` notes: SENDs whose wire the interpreter stages), and
— when the subject
verifies clean on a physical topology — the contention analyzer and its
α-β lower bound (``PLAN020``/``PLAN021``), into one
:class:`~repro.analyze.diagnostics.DiagnosticReport` the CLI renders as
text, JSON, or SARIF.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plan.ir import Plan
from ..plan.verifier import VerifyReport, prove_send_aliasing, verify_plan
from ..topology.base import PhysicalTopology
from ..topology.dgx1 import PCIE_ALPHA, PCIE_BANDWIDTH
from ..topology.routing import Router
from .contention import ContentionReport, analyze_contention
from .diagnostics import DiagnosticReport
from .ordering import StaticOrderingReport, prove_plan_ordering

__all__ = ["AnalysisReport", "analyze_plan"]


@dataclass
class AnalysisReport:
    """Everything the static suite proved (or refuted) about one plan.

    Attributes:
        subject: short description of the analyzed plan.
        verify: structural verifier outcome.
        ordering: static ordering prover outcome.
        contention: contention/lower-bound profile; ``None`` when no
            topology was given or the plan failed verification (a bound
            on a broken plan proves nothing).
        report: every diagnostic, deduplicated, as one report.
    """

    subject: str
    verify: VerifyReport
    ordering: StaticOrderingReport
    contention: ContentionReport | None
    report: DiagnosticReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def lower_bound(self) -> float | None:
        return self.contention.lower_bound if self.contention else None

    def describe(self) -> str:
        lines = [self.report.describe()]
        lines.append(
            f"  ordering: {self.ordering.transfers} transfers, "
            f"{self.ordering.wires} wires, {self.ordering.chunks} "
            "chunks — "
            + ("proved" if self.ordering.ok else "REFUTED")
        )
        if self.contention is not None:
            lines.append(
                f"  lower bound: {self.contention.lower_bound:.3e}s "
                f"(critical path {self.contention.critical_path:.3e}s, "
                f"busiest channel {self.contention.busy_bound:.3e}s)"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        out = self.report.to_json_dict()
        out["ordering"] = {
            "ok": self.ordering.ok,
            "transfers": self.ordering.transfers,
            "wires": self.ordering.wires,
            "chunks": self.ordering.chunks,
        }
        if self.contention is not None:
            out["contention"] = {
                "lower_bound": self.contention.lower_bound,
                "critical_path": self.contention.critical_path,
                "busy_bound": self.contention.busy_bound,
                "shared_lanes": {
                    repr(k): v
                    for k, v in self.contention.shared_lanes.items()
                },
            }
        return out


def analyze_plan(
    plan: Plan,
    *,
    topo: PhysicalTopology | None = None,
    router: Router | None = None,
    pcie_alpha: float = PCIE_ALPHA,
    pcie_beta: float = 1.0 / PCIE_BANDWIDTH,
) -> AnalysisReport:
    """Run the full static suite on one plan, no interpreter, no DES.

    Args:
        plan: logical or compiled plan.
        topo: physical topology; enables the physical-legality checks
            and the contention/lower-bound analysis.
    """
    subject = (
        f"plan {plan.algorithm!r} ({plan.nnodes} ranks, "
        f"{len(plan.ops)} ops"
        + (f", on {topo.name!r}" if topo is not None else "")
        + ")"
    )
    verify = verify_plan(plan, topo=topo, raise_on_error=False)
    ordering = prove_plan_ordering(plan)
    report = DiagnosticReport(tool="repro-analyze", subject=subject)
    report.extend(verify.diagnostics)
    # The prover re-derives wire pairing; drop its duplicates.
    seen = set(verify.diagnostics)
    report.extend([d for d in ordering.diagnostics if d not in seen])
    if verify.ok:
        report.extend(list(
            prove_send_aliasing(plan, verify.pairing).diagnostics
        ))
    contention: ContentionReport | None = None
    if topo is not None and verify.ok and ordering.ok:
        contention = analyze_contention(
            plan, topo, router=router,
            pcie_alpha=pcie_alpha, pcie_beta=pcie_beta,
        )
        report.extend(contention.diagnostics)
    return AnalysisReport(
        subject=subject,
        verify=verify,
        ordering=ordering,
        contention=contention,
        report=report,
    )
