"""`analyze_plan`: one call running every static analysis on a plan.

Combines the verifier (``PLAN001``-``PLAN006`` and ``PLAN011``), the
write-after-read aliasing check on the verifier's happens-before graph
(``PLAN012`` notes: SENDs whose wire the interpreter stages), and —
when the subject verifies clean on a physical topology — the contention
analyzer and its α-β lower bound (``PLAN020``/``PLAN021``), into one
:class:`~repro.analyze.diagnostics.DiagnosticReport` the CLI renders as
text, JSON, or SARIF.  The ``ordering`` summary is read off the same
verifier report.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plan.ir import K_SEND, Plan
from ..plan.verifier import (
    REDUCE_LIKE_CODES,
    VerifyReport,
    prove_send_aliasing,
    verify_plan,
)
from ..topology.base import PhysicalTopology
from ..topology.routing import Router
from .contention import ContentionReport, analyze_contention
from .diagnostics import DiagnosticReport

__all__ = ["AnalysisReport", "analyze_plan"]

#: Verifier codes that refute the ordering summary: no happens-before
#: graph (``PLAN001``/``PLAN002``), a cycle, or a broadcast unordered
#: after a reduce.
ORDERING_CODES = frozenset({"PLAN001", "PLAN002", "PLAN003", "PLAN011"})


@dataclass
class AnalysisReport:
    """Everything the static suite proved (or refuted) about one plan.

    Attributes:
        subject: short description of the analyzed plan.
        verify: verifier outcome.
        ordering: the verifier's ordering verdict (``ok``) with the
            SENDs, wires, and chunks with a reduce-like SEND it covered.
        contention: contention/lower-bound profile; ``None`` when no
            topology was given or the plan failed verification (a bound
            on a broken plan proves nothing).
        report: every diagnostic, deduplicated, as one report.
    """

    subject: str
    verify: VerifyReport
    ordering: dict
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
        o = self.ordering
        lines.append(
            f"  ordering: {o['transfers']} transfers, {o['wires']} wires, "
            f"{o['chunks']} chunks — "
            + ("proved" if o["ok"] else "REFUTED")
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
        out["ordering"] = dict(self.ordering)
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
    sends = [i for i, code in enumerate(plan.kind_code) if code == K_SEND]
    ordering = {
        "ok": not any(d.code in ORDERING_CODES for d in verify.diagnostics),
        "transfers": len(sends),
        "wires": len(verify.pairing.wires),
        "chunks": len({
            c for i in sends if plan.phase_code[i] in REDUCE_LIKE_CODES
            for c in plan.chunks_of(i)
        }),
    }
    report = DiagnosticReport(tool="repro-analyze", subject=subject)
    report.extend(verify.diagnostics)
    if verify.ok:
        report.extend(list(prove_send_aliasing(plan, verify).diagnostics))
    contention: ContentionReport | None = None
    if topo is not None and verify.ok:
        contention = analyze_contention(
            plan, topo, router=router, pairing=verify.pairing,
        )
        report.extend(contention.diagnostics)
    return AnalysisReport(
        subject=subject,
        verify=verify,
        ordering=ordering,
        contention=contention,
        report=report,
    )
