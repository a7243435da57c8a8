"""Self-checking reproduction certificate.

Runs every experiment of :mod:`repro.experiments.registry` (each one
carries claims), checks each claim row against its default run, and
prints the rows as one Markdown table:

    python -m repro.experiments.certify

Exit status 0 means every verdict equals its declared expectation: each
reproduced claim passes, and each claim declared "not reproduced" still
fails its check.  EXPERIMENTS.md carries this output verbatim, and a
test fails when the two drift apart.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from repro.experiments.registry import (
    EXPERIMENTS,
    FAIL,
    NOT_REPRODUCED,
    PASS,
    Claim,
    Experiment,
)


@dataclass(frozen=True)
class Verdict:
    """One claim checked against one run.

    Attributes:
        claim: the registry row.
        measured: what this reproduction measured (human-readable).
        passed: whether the claim holds on the measurement.
    """

    claim: Claim
    measured: str
    passed: bool

    @property
    def verdict(self) -> str:
        if self.passed:
            return PASS
        return NOT_REPRODUCED if self.claim.cause else FAIL

    @property
    def as_declared(self) -> bool:
        return self.verdict == self.claim.expected

    def describe(self) -> str:
        return (
            f"{self.claim.source}: {self.claim.statement} — measured "
            f"{self.measured}: {self.verdict}, declared {self.claim.expected}"
        )


def evaluate(experiment: Experiment, rows: Sequence[object]) -> list[Verdict]:
    """Check every claim of ``experiment`` against its ``rows``."""
    verdicts = []
    for claim in experiment.claims:
        measured, passed = claim.check(rows)
        verdicts.append(Verdict(claim, measured, bool(passed)))
    return verdicts


def run() -> list[Verdict]:
    """Run each experiment once; check every claim."""
    return [
        verdict
        for experiment in EXPERIMENTS.values()
        for verdict in evaluate(experiment, experiment.run())
    ]


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def format_table(verdicts: list[Verdict]) -> str:
    """The certificate: a Markdown table plus a one-line score."""
    lines = [
        "| source | claim | paper | reproduction | verdict |",
        "|---|---|---|---|---|",
    ]
    for v in verdicts:
        verdict = v.verdict
        if v.claim.cause:
            verdict += f": {v.claim.cause}"
        if not v.as_declared:
            verdict += f" (declared {v.claim.expected})"
        cells = (v.claim.source, v.claim.statement, v.claim.band,
                 v.measured, verdict)
        lines.append("| " + " | ".join(_cell(c) for c in cells) + " |")
    declared = sum(v.as_declared for v in verdicts)
    counts = {
        name: sum(v.verdict == name for v in verdicts)
        for name in (PASS, NOT_REPRODUCED, FAIL)
    }
    lines += [
        "",
        f"{declared}/{len(verdicts)} verdicts as declared ("
        + ", ".join(f"{n} {name}" for name, n in counts.items())
        + ")",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    del argv
    verdicts = run()
    print(format_table(verdicts))
    return 0 if all(v.as_declared for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
