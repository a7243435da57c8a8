"""The sanitizer's result object: findings + rendering + JSON forms."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .lockgraph import (
    BlockedWait,
    PostOrderCycleFinding,
    WaitCycleFinding,
)
from .races import RaceFinding

__all__ = ["SanitizerReport", "render_report_dict"]


@dataclass
class SanitizerReport:
    """Everything one traced scope produced.

    ``ok`` is True only when *no* analysis fired; ``blocked`` on its own
    is informational (threads legitimately blocked at an injected-fault
    abort) and does not fail a report.
    """

    races: list[RaceFinding] = field(default_factory=list)
    wait_cycles: list[WaitCycleFinding] = field(default_factory=list)
    post_cycles: list[PostOrderCycleFinding] = field(default_factory=list)
    blocked: list[BlockedWait] = field(default_factory=list)
    nevents: int = 0
    nthreads: int = 0

    @property
    def findings(self) -> list:
        return [
            *self.races,
            *self.wait_cycles,
            *self.post_cycles,
        ]

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        head = (
            f"sanitizer: {self.nevents} events, {self.nthreads} threads, "
            f"{len(self.findings)} finding(s)"
        )
        if self.ok:
            return head + " — clean"
        parts = [head]
        parts.extend(finding.describe() for finding in self.findings)
        if self.blocked:
            parts.append("threads blocked at end of trace:")
            parts.extend(f"  {wait.describe()}" for wait in self.blocked)
        return "\n".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "nevents": self.nevents,
            "nthreads": self.nthreads,
            "races": [
                {**asdict(f), "describe": f.describe()} for f in self.races
            ],
            "wait_cycles": [
                {**asdict(f), "describe": f.describe()}
                for f in self.wait_cycles
            ],
            "post_cycles": [
                {**asdict(f), "describe": f.describe()}
                for f in self.post_cycles
            ],
            "blocked": [asdict(w) for w in self.blocked],
        }


def render_report_dict(data: dict) -> str:
    """Human rendering of a ``to_json_dict`` payload (for ``sanitize
    report``), without reconstructing finding objects."""
    lines = [
        "sanitizer: {nevents} events, {nthreads} threads".format(
            nevents=data.get("nevents", "?"), nthreads=data.get("nthreads", "?")
        )
    ]
    findings = []
    for group in ("races", "wait_cycles", "post_cycles"):
        for item in data.get(group, ()):  # pre-rendered text per finding
            findings.append(item.get("describe", str(item)))
    if not findings:
        lines.append("clean — no races or wait cycles")
    else:
        lines.append(f"{len(findings)} finding(s):")
        lines.extend(findings)
    blocked = data.get("blocked", ())
    if blocked:
        lines.append("threads blocked at end of trace:")
        for item in blocked:
            lines.append(
                "  {thread!r} blocked in {what} on {sem!r} at {site}".format(
                    **item
                )
            )
    return "\n".join(lines)
