"""The fuzz harness: drive scenarios through adversarial schedules.

One *schedule* = one run of a sanitizer scenario under a
:class:`~repro.fuzz.scheduler.ChaosScheduler` with a seeded policy.
Each run is judged by the **dual oracle**:

- the scenario body's own bit-exactness assertion against the serial
  reference (every healthy scenario raises if a GPU's output is not
  the exact expected sum), and
- the vector-clock sanitizer report, checked against the scenario's
  registered expectation (healthy ⇒ clean; seeded ⇒ the exact
  diagnostic).

A healthy scenario that fails either half under some schedule is a real
ordering bug the default interleaving happened to hide.  The failing
schedule's decision trace is then shrunk (ddmin through replay) to a
minimal perturbation list and packaged as a JSON *seed file* — stored,
reportable, and replayable with ``repro fuzz replay``.

For seeded-broken scenarios the polarity flips: a schedule *detects*
the bug when the expected finding appears, and the harness reports how
many schedules that took (the regression gate asserts a bound).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ConfigError
from repro.sanitizer.scenarios import SCENARIOS, run_scenario

from .policy import (
    PCTPolicy,
    RandomWalkPolicy,
    ReplayPolicy,
    SchedulePolicy,
    policy_from_spec,
)
from .scheduler import ChaosScheduler, ScheduleDecision, fuzzing
from .shrink import ddmin

__all__ = [
    "ScheduleRun",
    "FuzzFailure",
    "ScenarioFuzzOutcome",
    "ReplayOutcome",
    "run_schedule",
    "fuzz_scenario",
    "replay_failure",
    "save_failure",
    "load_failure",
    "make_policy",
    "POLICIES",
]

_SEED_FILE_VERSION = 1

#: Policy registry for the CLI / pytest mode.
POLICIES: dict[str, type[SchedulePolicy]] = {
    RandomWalkPolicy.name: RandomWalkPolicy,
    PCTPolicy.name: PCTPolicy,
}


def make_policy(name: str, seed: int) -> SchedulePolicy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown schedule policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
    return cls(seed)


@dataclass
class ScheduleRun:
    """One scenario execution under one fuzzed schedule.

    Attributes:
        passed: the scenario's expectation held (healthy: clean +
            bit-exact; seeded: the expected finding was produced).
        detail: one-line explanation (expectation text or the raised
            error).
        trace: perturbations the scheduler applied, sorted.
        npoints: decision points the schedule explored.
        error: repr of an unexpected exception, if one escaped.
    """

    passed: bool
    detail: str
    trace: list[ScheduleDecision] = field(default_factory=list)
    npoints: int = 0
    error: str | None = None


def run_schedule(
    scenario: str,
    policy: SchedulePolicy,
    *,
    elems: int = 64,
    quantum: float = 2e-4,
) -> ScheduleRun:
    """Run one registered scenario under one fuzzed schedule."""
    with fuzzing(policy, quantum=quantum) as scheduler:
        try:
            result = run_scenario(scenario, elems=elems)
        except Exception as exc:  # noqa: BLE001 - the oracle's verdict
            # The scenario body raised through the fuzzed schedule: a
            # wrong sum (AssertionError), a deadlock-turned-abort, a
            # frame misordering — all oracle failures, not harness
            # errors.
            return ScheduleRun(
                passed=False,
                detail=f"scenario raised under fuzzed schedule: {exc!r}",
                trace=scheduler.trace(),
                npoints=scheduler.npoints,
                error=repr(exc),
            )
    return ScheduleRun(
        passed=result.passed,
        detail=result.detail,
        trace=scheduler.trace(),
        npoints=scheduler.npoints,
    )


@dataclass
class FuzzFailure:
    """A minimized, replayable failing schedule (the seed file).

    Attributes:
        scenario: registered scenario name.
        elems: gradient element count the scenario ran with.
        quantum: scheduler sleep quantum in seconds.
        policy_spec: spec of the policy that found the failure.
        detail: the oracle's explanation at discovery time.
        trace: minimized decision rows ``[thread, index, kind, action]``.
        original_decisions: trace length before shrinking.
    """

    scenario: str
    elems: int
    quantum: float
    policy_spec: dict
    detail: str
    trace: list[list] = field(default_factory=list)
    original_decisions: int = 0

    def to_json_dict(self) -> dict:
        return {
            "version": _SEED_FILE_VERSION,
            "kind": "repro-fuzz-failure",
            "scenario": self.scenario,
            "elems": self.elems,
            "quantum": self.quantum,
            "policy": self.policy_spec,
            "detail": self.detail,
            "original_decisions": self.original_decisions,
            "trace": [list(row) for row in self.trace],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "FuzzFailure":
        if not isinstance(data, dict) or data.get("kind") != "repro-fuzz-failure":
            raise ConfigError("not a repro fuzz seed file")
        if data.get("version") != _SEED_FILE_VERSION:
            raise ConfigError(
                f"unsupported fuzz seed-file version {data.get('version')!r}"
            )
        try:
            return FuzzFailure(
                scenario=str(data["scenario"]),
                elems=int(data["elems"]),
                quantum=float(data["quantum"]),
                policy_spec=dict(data["policy"]),
                detail=str(data.get("detail", "")),
                trace=[list(row) for row in data.get("trace", [])],
                original_decisions=int(data.get("original_decisions", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed fuzz seed file: {exc}") from exc


def save_failure(failure: FuzzFailure, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(failure.to_json_dict(), indent=2) + "\n")
    return path


def load_failure(path: str | Path) -> FuzzFailure:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"fuzz seed file does not parse: {exc}") from exc
    return FuzzFailure.from_json_dict(data)


@dataclass
class ScenarioFuzzOutcome:
    """Result of fuzzing one scenario over many schedules.

    Attributes:
        scenario: scenario name.
        seeded: True for deliberately broken kernels.
        requested: schedule budget.
        schedules: schedules actually run (seeded scenarios stop at
            first detection).
        points: total decision points explored.
        decisions: total perturbations injected.
        detected_at: seeded only — 1-based schedule index of the first
            detection (None if never detected within budget).
        failure: healthy only — first failing schedule, minimized.
    """

    scenario: str
    seeded: bool
    requested: int
    schedules: int = 0
    points: int = 0
    decisions: int = 0
    detected_at: int | None = None
    failure: FuzzFailure | None = None

    @property
    def ok(self) -> bool:
        if self.seeded:
            return self.detected_at is not None
        return self.failure is None


def _replay_fails(
    scenario: str, elems: int, quantum: float
) -> Callable[[list[list]], bool]:
    """Oracle for the shrinker: does this candidate trace still fail?"""

    def fails(candidate: list[list]) -> bool:
        run = run_schedule(
            scenario,
            ReplayPolicy(candidate),
            elems=elems,
            quantum=quantum,
        )
        return not run.passed

    return fails


def fuzz_scenario(
    scenario: str,
    *,
    schedules: int,
    base_seed: int = 0,
    policy: str = RandomWalkPolicy.name,
    elems: int = 64,
    quantum: float = 2e-4,
    shrink: bool = True,
) -> ScenarioFuzzOutcome:
    """Fuzz one scenario across ``schedules`` seeded schedules.

    Healthy scenarios run the full budget (stopping at the first
    failure, which is shrunk within 64 replays and attached); seeded
    scenarios stop at the first schedule whose report carries the
    expected finding.
    """
    try:
        registered = SCENARIOS[scenario]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {scenario!r}; see `repro sanitize list`"
        ) from None
    outcome = ScenarioFuzzOutcome(
        scenario=scenario, seeded=registered.seeded, requested=schedules
    )
    for i in range(schedules):
        seed = base_seed + i
        pol = make_policy(policy, seed)
        run = run_schedule(scenario, pol, elems=elems, quantum=quantum)
        outcome.schedules += 1
        outcome.points += run.npoints
        outcome.decisions += len(run.trace)
        if registered.seeded:
            if run.passed:
                outcome.detected_at = i + 1
                break
            continue
        if not run.passed:
            rows = [d.row() for d in run.trace]
            minimized = rows
            if shrink:
                minimized = ddmin(
                    rows,
                    _replay_fails(scenario, elems, quantum),
                    max_probes=64,
                )
            outcome.failure = FuzzFailure(
                scenario=scenario,
                elems=elems,
                quantum=quantum,
                policy_spec=pol.spec(),
                detail=run.detail,
                trace=minimized,
                original_decisions=len(rows),
            )
            break
    return outcome


@dataclass
class ReplayOutcome:
    """What replaying a stored failure produced.

    Attributes:
        reproduced: the oracle failed again under the stored trace.
        detail: the replay's oracle explanation.
        trace_identical: the decisions actually applied during replay
            equal the stored minimized trace — the determinism check
            (``same seed file ⇒ same schedule``).
        applied: decision rows applied during the replay.
    """

    reproduced: bool
    detail: str
    trace_identical: bool
    applied: list[list] = field(default_factory=list)


def replay_failure(failure: FuzzFailure) -> ReplayOutcome:
    """Re-run a stored failing schedule from its minimized trace."""
    run = run_schedule(
        failure.scenario,
        ReplayPolicy(failure.trace),
        elems=failure.elems,
        quantum=failure.quantum,
    )
    applied = [d.row() for d in run.trace]
    return ReplayOutcome(
        reproduced=not run.passed,
        detail=run.detail,
        trace_identical=applied == [list(r) for r in failure.trace],
        applied=applied,
    )
