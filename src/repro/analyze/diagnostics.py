"""Unified diagnostic model shared by every static analysis.

One :class:`Diagnostic` type carries every finding the repo's static
tools produce — the plan verifier (``PLAN001``-``PLAN006``, its
reduce-before-broadcast check ``PLAN011`` and its enqueue-order check
``PLAN013``), the write-after-read aliasing
check (``PLAN012``), the contention analyzer
(``PLAN020``/``PLAN021``), and the sync-discipline lint
(``SYNC001``-``SYNC004``).  Each diagnostic has a stable code, a
severity, a human message, and *provenance*: for plan findings the op
id/name plus the builder or pass that introduced the op; for lint
findings the file and line.

The module deliberately imports nothing from :mod:`repro.plan` (the
verifier imports *us*), and renders to three formats:

- plain text (``str(diag)`` — the lint's historical line format),
- JSON (:meth:`DiagnosticReport.to_json_dict`),
- SARIF 2.1.0 (:func:`to_sarif`) for GitHub code-scanning annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "RULES",
    "rule_slug",
    "severity_of",
    "to_sarif",
]

#: Severity levels, in increasing order of badness; "error" fails the
#: analysis, "warning"/"note" are advisory and never flip an exit code.
SEVERITIES = ("note", "warning", "error")


@dataclass(frozen=True)
class RuleSpec:
    """Registry entry for one diagnostic code."""

    code: str
    slug: str
    severity: str
    summary: str


def _rule(code: str, slug: str, severity: str, summary: str) -> RuleSpec:
    return RuleSpec(code=code, slug=slug, severity=severity, summary=summary)


#: Every code any repo tool can emit.  PLAN00x mirror the verifier's
#: check groups, PLAN011 and PLAN013 its ordering properties, PLAN012
#: the aliasing proof's note, PLAN02x the contention analyzer's advisories,
#: SYNC00x the AST lint.  PLAN010 (FIFO per wire) is retired: PLAN002's
#: one-sender, one-receiver thread block rule already implies it.
RULES: dict[str, RuleSpec] = {
    spec.code: spec
    for spec in (
        _rule("PLAN001", "structure", "error",
              "malformed op: bad id/kind/rank/peer/chunk/payload/dep"),
        _rule("PLAN002", "wire-pairing", "error",
              "send/recv FIFO pairing is inconsistent on a wire"),
        _rule("PLAN003", "deadlock", "error",
              "the combined dependence graph has a cycle"),
        _rule("PLAN004", "dataflow", "error",
              "a rank does not end holding the exactly-once reduction"),
        _rule("PLAN005", "race", "error",
              "unordered accesses to one (rank, chunk) slot"),
        _rule("PLAN006", "physical", "error",
              "a hop rides a link or lane the topology does not have"),
        _rule("PLAN011", "reduce-before-broadcast", "error",
              "a broadcast of a chunk is not ordered after its reduces"),
        _rule("PLAN012", "send-source-rewritten", "note",
              "a sent chunk is rewritten before its consumer reads it, "
              "so its wire stages a copy"),
        _rule("PLAN013", "enqueue-order", "error",
              "a rank makes one tree's chunks final out of position "
              "order"),
        _rule("PLAN020", "link-oversubscribed", "warning",
              "multiple trees contend for one directed link lane"),
        _rule("PLAN021", "lane-imbalance", "note",
              "busy time is spread unevenly across link lanes"),
        _rule("SYNC001", "raw-threading", "error",
              "raw threading primitive instead of repro.runtime.sync"),
        _rule("SYNC002", "spin-abort", "error",
              "spin loop ignores the cluster abort flag"),
        _rule("SYNC003", "unfenced-store", "error",
              "bare atomic .store() outside the sync implementation"),
        _rule("SYNC004", "ckpt-atomic", "error",
              "checkpoint code writes a durable path in place"),
    )
}


def rule_slug(code: str) -> str:
    """Short kebab-case name of a code (``PLAN003`` -> ``deadlock``)."""
    spec = RULES.get(code)
    return spec.slug if spec else code.lower()


def severity_of(code: str) -> str:
    """Default severity of a code (unknown codes are errors)."""
    spec = RULES.get(code)
    return spec.severity if spec else "error"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a static analysis.

    Attributes:
        code: stable rule id (``PLAN0xx`` / ``SYNC00x``).
        message: human-readable description of the defect.
        severity: ``"error"`` / ``"warning"`` / ``"note"``; only errors
            make a report (or an exit code) fail.
        op_id: offending plan op id (``-1`` for non-plan findings).
        op_name: the op's diagnostic name (``op 17 [send c3 2->4 t0]``).
        origin: provenance of the op — the builder or compile pass that
            introduced it (``builder:ring``, ``pass:legalize_routes``).
        path: source file for lint findings ("" for plan findings).
        line: 1-based source line for lint findings (0 when n/a).
    """

    code: str
    message: str
    severity: str = "error"
    op_id: int = -1
    op_name: str = ""
    origin: str = ""
    path: str = ""
    line: int = 0

    @property
    def rule(self) -> str:
        """Alias kept for the lint's historical ``Finding.rule`` API."""
        return self.code

    @property
    def slug(self) -> str:
        return rule_slug(self.code)

    def __str__(self) -> str:
        body = f"{self.code} ({self.slug}): {self.message}"
        if self.path:
            return f"{self.path}:{self.line}: {body}"
        if self.origin:
            return f"{body} [from {self.origin}]"
        return body

    def to_json_dict(self) -> dict:
        out: dict = {
            "code": self.code,
            "slug": self.slug,
            "severity": self.severity,
            "message": self.message,
        }
        if self.op_id >= 0:
            out["op_id"] = self.op_id
        if self.op_name:
            out["op_name"] = self.op_name
        if self.origin:
            out["origin"] = self.origin
        if self.path:
            out["path"] = self.path
            out["line"] = self.line
        return out


@dataclass
class DiagnosticReport:
    """A batch of diagnostics from one tool over one subject.

    Attributes:
        tool: emitting analysis (``"repro-analyze"``, ``"lint-sync"``).
        subject: what was analyzed (a plan description, a source root).
        diagnostics: every finding, advisory ones included.
    """

    tool: str
    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostic is present."""
        return not self.errors

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity != "error"]

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def describe(self) -> str:
        head = (
            f"{self.tool}: {self.subject} — "
            + ("ok" if self.ok else f"{len(self.errors)} error(s)")
        )
        if self.warnings:
            head += f", {len(self.warnings)} advisory"
        lines = [head]
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "tool": self.tool,
            "subject": self.subject,
            "ok": self.ok,
            "diagnostics": [d.to_json_dict() for d in self.diagnostics],
        }


_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: SARIF "level" per severity.
_SARIF_LEVEL = {"error": "error", "warning": "warning", "note": "note"}


def to_sarif(
    diagnostics: list[Diagnostic],
    *,
    tool: str = "repro-analyze",
) -> dict:
    """Render diagnostics as a SARIF 2.1.0 log (one run).

    Findings without a source path (plan diagnostics) anchor to a
    synthetic URI so GitHub still renders them; op provenance travels in
    ``properties``.
    """
    used = sorted({d.code for d in diagnostics})
    rules = []
    for code in used:
        spec = RULES.get(code)
        rules.append({
            "id": code,
            "name": spec.slug if spec else code,
            "shortDescription": {
                "text": spec.summary if spec else code,
            },
            "defaultConfiguration": {
                "level": _SARIF_LEVEL[severity_of(code)],
            },
        })
    results = []
    for d in diagnostics:
        result: dict = {
            "ruleId": d.code,
            "level": _SARIF_LEVEL.get(d.severity, "error"),
            "message": {"text": d.message},
        }
        props: dict = {}
        if d.op_id >= 0:
            props["op_id"] = d.op_id
        if d.op_name:
            props["op_name"] = d.op_name
        if d.origin:
            props["origin"] = d.origin
        if props:
            result["properties"] = props
        if d.path:
            result["locations"] = [{
                "physicalLocation": {
                    "artifactLocation": {"uri": d.path},
                    "region": {"startLine": max(1, d.line)},
                },
            }]
        results.append(result)
    driver: dict = {"name": tool, "rules": rules}
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{"tool": {"driver": driver}, "results": results}],
    }
