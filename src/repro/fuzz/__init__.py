"""Schedule-space fuzzer for the virtual GPU runtime.

The sanitizer (:mod:`repro.sanitizer`) judges the interleavings that
happened to run; this package makes *adversarial* interleavings happen
— deterministically.  A seeded :class:`~repro.fuzz.policy.SchedulePolicy`
decides, at every traced sync point and chunk access, whether the
calling thread proceeds, yields, or pauses; the same kernels thus run
under thousands of distinct but reproducible schedules, each checked by
the dual oracle (bit-exactness against the serial reference + a clean
sanitizer report).  Failing schedules are shrunk to a minimal decision
trace and stored as replayable seed files.

Entry points:

- ``with fuzzing(RandomWalkPolicy(seed)) as s: ...`` — fuzz a scope;
- ``repro fuzz run|replay|report`` — CLI over the scenario registry;
- ``pytest --fuzz-schedules=N`` — run the suite N times, each test
  under a distinct seeded schedule (conftest).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ChaosScheduler",
    "Decision",
    "FuzzFailure",
    "PCTPolicy",
    "POLICIES",
    "RandomWalkPolicy",
    "ReplayOutcome",
    "ReplayPolicy",
    "ScenarioFuzzOutcome",
    "ScheduleDecision",
    "SchedulePolicy",
    "ScheduleRun",
    "DROP",
    "DUPLICATE",
    "SWAP",
    "MutantOutcome",
    "MutationFuzzOutcome",
    "PlanMutation",
    "candidate_mutations",
    "fuzz_builder_mutations",
    "fuzz_mutations",
    "mutant_behaviour",
    "mutate_plan",
    "sample_mutations",
    "ddmin",
    "fuzz_scenario",
    "fuzzing",
    "load_failure",
    "make_policy",
    "policy_from_spec",
    "replay_failure",
    "run_schedule",
    "save_failure",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "DROP": "mutate",
        "DUPLICATE": "mutate",
        "SWAP": "mutate",
        "MutantOutcome": "mutate",
        "MutationFuzzOutcome": "mutate",
        "PlanMutation": "mutate",
        "candidate_mutations": "mutate",
        "fuzz_builder_mutations": "mutate",
        "fuzz_mutations": "mutate",
        "mutant_behaviour": "mutate",
        "mutate_plan": "mutate",
        "sample_mutations": "mutate",
        "POLICIES": "harness",
        "FuzzFailure": "harness",
        "ReplayOutcome": "harness",
        "ScenarioFuzzOutcome": "harness",
        "ScheduleRun": "harness",
        "fuzz_scenario": "harness",
        "load_failure": "harness",
        "make_policy": "harness",
        "replay_failure": "harness",
        "run_schedule": "harness",
        "save_failure": "harness",
        "Decision": "policy",
        "PCTPolicy": "policy",
        "RandomWalkPolicy": "policy",
        "ReplayPolicy": "policy",
        "SchedulePolicy": "policy",
        "policy_from_spec": "policy",
        "ChaosScheduler": "scheduler",
        "ScheduleDecision": "scheduler",
        "fuzzing": "scheduler",
        "ddmin": "shrink",
    },
)
