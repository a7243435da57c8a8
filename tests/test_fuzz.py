"""Schedule-space fuzzer: policy determinism, the chaos scheduler,
ddmin shrinking, seed-file replay, and the seeded-kernel regression
gate.

Every test here manages its own scheduler (or depends on unperturbed
timing), so the module opts out of ``--fuzz-schedules``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fuzz import (
    ChaosScheduler,
    FuzzFailure,
    PCTPolicy,
    RandomWalkPolicy,
    ReplayPolicy,
    ddmin,
    fuzz_scenario,
    fuzzing,
    load_failure,
    make_policy,
    policy_from_spec,
    replay_failure,
    run_schedule,
    save_failure,
)
from repro.sanitizer import hooks
from repro.sanitizer.scenarios import (
    SCENARIOS,
    Expectation,
    Scenario,
    scenario_names,
)

pytestmark = pytest.mark.no_fuzz

#: The bound the regression gate asserts (ISSUE acceptance criterion).
DETECTION_BUDGET = 200

HEALTHY = scenario_names(seeded=False)
SEEDED = scenario_names(seeded=True)

#: Healthy scenarios whose every thread runs to completion.  The two
#: abort-driven drills (injected crash, recovery re-embed) stop threads
#: at whatever point they happen to observe the abort flag, so the *set*
#: of decision points reached — unlike the decisions themselves — is
#: timing-dependent and their traces cannot be byte-compared.
DETERMINISTIC = [
    s for s in HEALTHY if s not in ("fault_injected", "recovery_reembed")
]


def _rows(decisions) -> list[list]:
    return [d.row() for d in decisions]


# -- policies -------------------------------------------------------------


class TestPolicies:
    def test_random_walk_is_pure(self):
        a = RandomWalkPolicy(seed=11)
        b = RandomWalkPolicy(seed=11)
        for thread in ("k0", "k1", "relay"):
            for index in range(200):
                assert (
                    a.decide(thread, index, "sem_post").action
                    == b.decide(thread, index, "sem_post").action
                )

    def test_random_walk_mixes_actions(self):
        policy = RandomWalkPolicy(seed=3)
        actions = {
            policy.decide(f"t{t}", i, "write").action
            for t in range(8)
            for i in range(100)
        }
        assert "p" in actions
        assert "y" in actions
        assert any(a.startswith("s") for a in actions)

    def test_random_walk_seeds_differ(self):
        a = RandomWalkPolicy(seed=0)
        b = RandomWalkPolicy(seed=1)
        seq_a = [a.decide("k0", i, "write").action for i in range(100)]
        seq_b = [b.decide("k0", i, "write").action for i in range(100)]
        assert seq_a != seq_b

    def test_pct_slow_threads_sleep_fast_threads_proceed(self):
        policy = PCTPolicy(seed=5, change_points=0)
        slow = fast = 0
        for t in range(16):
            acts = {
                policy.decide(f"t{t}", i, "write").action for i in range(20)
            }
            # Without change points a thread keeps one priority: it is
            # either uniformly slow or uniformly fast.
            assert acts == {"p"} or all(a.startswith("s") for a in acts)
            if acts == {"p"}:
                fast += 1
            else:
                slow += 1
        assert slow > 0 and fast > 0

    def test_pct_change_points_flip_behavior(self):
        flipped = False
        for seed in range(20):
            policy = PCTPolicy(seed=seed, change_points=3, horizon=64)
            for t in range(8):
                acts = [
                    policy.decide(f"t{t}", i, "write").action
                    for i in range(64)
                ]
                if "p" in acts and any(a.startswith("s") for a in acts):
                    flipped = True
        assert flipped

    def test_replay_applies_only_recorded_points(self):
        policy = ReplayPolicy([["k0", 3, "write", "y"], ["k1", 0, "read", "s2"]])
        assert policy.decide("k0", 3, "write").action == "y"
        assert policy.decide("k1", 0, "read").action == "s2"
        assert policy.decide("k0", 4, "write").action == "p"
        assert policy.decide("k2", 3, "write").action == "p"

    def test_spec_roundtrip(self):
        for policy in (
            RandomWalkPolicy(seed=9, yield_prob=0.2),
            PCTPolicy(seed=4, change_points=5),
        ):
            rebuilt = policy_from_spec(policy.spec())
            assert rebuilt.spec() == policy.spec()
            for i in range(50):
                assert (
                    rebuilt.decide("k0", i, "write").action
                    == policy.decide("k0", i, "write").action
                )

    def test_spec_rejects_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown schedule policy"):
            policy_from_spec({"name": "nope", "seed": 0})

    def test_spec_rejects_malformed_kwargs(self):
        with pytest.raises(ConfigError, match="malformed policy spec"):
            policy_from_spec({"name": "random", "bogus_kw": 1})

    def test_make_policy_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown schedule policy"):
            make_policy("nope", seed=0)


# -- scheduler ------------------------------------------------------------


class TestChaosScheduler:
    def test_counts_points_per_thread(self):
        sched = ChaosScheduler(RandomWalkPolicy(seed=1), quantum=0.0)
        for _ in range(5):
            sched.on_point("sync", "sem_post", "s")
        assert sched.npoints == 5
        trace = sched.trace()
        assert all(d.kind == "sem_post" for d in trace)
        indices = [d.index for d in trace]
        assert indices == sorted(indices)

    def test_sem_block_is_not_a_decision_point(self):
        sched = ChaosScheduler(RandomWalkPolicy(seed=1), quantum=0.0)
        sched.on_point("sync", "sem_block", "s")
        assert sched.npoints == 0
        assert sched.trace() == []

    def test_trace_is_sorted_by_thread_then_index(self):
        sched = ChaosScheduler(RandomWalkPolicy(seed=2), quantum=0.0)
        for _ in range(50):
            sched.on_point("access", "write", "grad/c0")
        rows = _rows(sched.trace())
        assert rows == sorted(rows, key=lambda r: (r[0], r[1]))

    def test_dump_tail_names_policy_and_decisions(self):
        sched = ChaosScheduler(RandomWalkPolicy(seed=7), quantum=0.0)
        for _ in range(30):
            sched.on_point("sync", "sem_post", "sem0")
        text = sched.dump_tail()
        assert "random(seed=7)" in text
        assert "30 points" in text
        assert "recent:" in text

    def test_fuzzing_pushes_and_pops_scheduler(self):
        assert hooks.active_scheduler() is None
        with fuzzing(RandomWalkPolicy(seed=0)) as sched:
            assert hooks.active_scheduler() is sched
        assert hooks.active_scheduler() is None

    def test_fuzzing_pops_on_error(self):
        with pytest.raises(RuntimeError):
            with fuzzing(RandomWalkPolicy(seed=0)):
                raise RuntimeError("boom")
        assert hooks.active_scheduler() is None


# -- shrinking ------------------------------------------------------------


class TestDdmin:
    def test_schedule_independent_failure_shrinks_to_empty(self):
        assert ddmin(list(range(10)), lambda c: True) == []

    def test_finds_single_culprit(self):
        result = ddmin(list(range(16)), lambda c: 7 in c)
        assert result == [7]

    def test_finds_pair_of_culprits(self):
        result = ddmin(list(range(16)), lambda c: 2 in c and 11 in c)
        assert result == [2, 11]

    def test_result_always_fails(self):
        def fails(c):
            return 3 in c

        result = ddmin(list(range(12)), fails, max_probes=2)
        assert fails(result)

    def test_preserves_order(self):
        result = ddmin(
            ["a", "b", "c", "d"], lambda c: "d" in c and "a" in c
        )
        assert result == ["a", "d"]


# -- replay determinism (satellite: same seed => same schedule) -----------


class TestReplayDeterminism:
    @pytest.mark.parametrize("scenario", DETERMINISTIC)
    def test_same_seed_byte_identical_trace(self, scenario):
        runs = [
            run_schedule(
                scenario, RandomWalkPolicy(seed=23), elems=32
            )
            for _ in range(2)
        ]
        assert runs[0].passed and runs[1].passed, runs[0].detail
        blobs = [json.dumps(_rows(r.trace)) for r in runs]
        assert blobs[0] == blobs[1]
        assert runs[0].trace  # the schedule actually perturbed something

    def test_same_seed_identical_runtime_outputs(self):
        from repro.runtime.allreduce import TreeAllReduceRuntime
        from repro.runtime.sync import SpinConfig
        from repro.topology.logical import balanced_binary_tree

        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=64) for _ in range(8)]
        outs = []
        for _ in range(2):
            runtime = TreeAllReduceRuntime(
                (balanced_binary_tree(8),),
                total_elems=64,
                chunks_per_tree=4,
                spin=SpinConfig(timeout=10.0),
            )
            with fuzzing(RandomWalkPolicy(seed=17)):
                outs.append(runtime.run([a.copy() for a in inputs]).outputs)
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(a, b)

    def test_same_seed_identical_plan_outputs(self):
        from repro.plan import PlanInterpreter, build_plan
        from repro.runtime.sync import SpinConfig

        plan = build_plan("double_tree", 8, 4096, nchunks=4,
                          overlapped=True)
        rng = np.random.default_rng(1)
        inputs = [rng.normal(size=64) for _ in range(8)]
        outs = []
        for _ in range(2):
            interp = PlanInterpreter(
                plan,
                total_elems=64,
                spin=SpinConfig(timeout=10.0),
            )
            with fuzzing(RandomWalkPolicy(seed=29)):
                outs.append(interp.run([a.copy() for a in inputs]).outputs)
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(a, b)


# -- the dual oracle over the scenario registry ---------------------------


class TestFuzzScenario:
    @pytest.mark.parametrize("scenario", SEEDED)
    def test_seeded_kernels_detected_within_budget(self, scenario):
        """Regression gate: the fuzzer finds every seeded bug quickly."""
        outcome = fuzz_scenario(scenario, schedules=DETECTION_BUDGET,
                                elems=32)
        assert outcome.seeded
        assert outcome.detected_at is not None, (
            f"{scenario} not detected in {DETECTION_BUDGET} schedules"
        )
        assert outcome.detected_at <= DETECTION_BUDGET
        assert outcome.ok

    @pytest.mark.parametrize("scenario", HEALTHY)
    def test_healthy_scenarios_survive_quick_fuzz(self, scenario):
        outcome = fuzz_scenario(scenario, schedules=3, elems=32)
        assert not outcome.seeded
        assert outcome.failure is None, outcome.failure.detail
        assert outcome.ok
        assert outcome.schedules == 3
        assert outcome.points > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("scenario", HEALTHY)
    def test_healthy_scenarios_survive_deep_fuzz(self, scenario):
        """Acceptance soak: 200 random schedules, all clean (nightly)."""
        outcome = fuzz_scenario(scenario, schedules=200, elems=32)
        assert outcome.failure is None, outcome.failure.detail

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            fuzz_scenario("nope", schedules=1)

    def test_pct_policy_drives_scenarios_too(self):
        outcome = fuzz_scenario(
            "ring", schedules=2, policy="pct", elems=32
        )
        assert outcome.ok


# -- seed files and end-to-end failure pipeline ---------------------------


def _broken_but_declared_healthy() -> Scenario:
    """A seeded-broken kernel registered with a *clean* expectation.

    To the harness this looks like a healthy runtime with a real bug:
    every schedule fails the sanitizer half of the dual oracle, so the
    full pipeline (failure -> shrink -> seed file -> replay) runs.
    """
    donor = SCENARIOS["seeded_dropped_post"]
    return Scenario(
        name="_fuzz_broken_healthy",
        seeded=False,
        expect=Expectation("clean"),
        fn=donor.fn,
        doc="test-only: broken kernel declared healthy",
    )


class TestSeedFiles:
    def _failure(self) -> FuzzFailure:
        return FuzzFailure(
            scenario="tree",
            elems=32,
            quantum=2e-4,
            policy_spec={"name": "random", "seed": 3},
            detail="expected clean, got findings",
            trace=[["k0", 3, "write", "y"], ["k1", 0, "read", "s2"]],
            original_decisions=40,
        )

    def test_roundtrip(self, tmp_path):
        failure = self._failure()
        path = save_failure(failure, tmp_path / "f.json")
        loaded = load_failure(path)
        assert loaded == failure

    def test_rejects_non_seed_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ConfigError, match="not a repro fuzz seed"):
            load_failure(path)

    def test_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="does not parse"):
            load_failure(path)

    def test_rejects_unknown_version(self, tmp_path):
        data = self._failure().to_json_dict()
        data["version"] = 99
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="version"):
            load_failure(path)


class TestFailurePipeline:
    def test_find_shrink_save_replay(self, tmp_path, monkeypatch):
        scenario = _broken_but_declared_healthy()
        monkeypatch.setitem(SCENARIOS, scenario.name, scenario)
        outcome = fuzz_scenario(scenario.name, schedules=5, elems=32)
        assert not outcome.ok
        failure = outcome.failure
        assert failure is not None
        # The seeded bug is schedule-independent: ddmin's empty-trace
        # probe already reproduces it, so the minimal trace is empty.
        assert failure.trace == []
        assert failure.original_decisions > 0

        path = save_failure(failure, tmp_path / "broken.json")
        replay = replay_failure(load_failure(path))
        assert replay.reproduced
        assert replay.trace_identical
        assert "race" in replay.detail or "got" in replay.detail

    def test_replay_of_schedule_dependent_trace_is_stable(self):
        """Replaying a recorded trace re-applies exactly those rows."""
        run = run_schedule("ring", RandomWalkPolicy(seed=2), elems=32)
        assert run.passed and run.trace
        rows = _rows(run.trace)
        replayed = run_schedule("ring", ReplayPolicy(rows), elems=32)
        assert replayed.passed
        assert _rows(replayed.trace) == rows


# -- abort diagnostics carry the active schedule --------------------------


class TestAbortDiagnostics:
    def test_diagnostics_include_fuzz_tail(self):
        from repro.runtime.sync import AbortCell

        cell = AbortCell()
        cell.trigger("test abort")
        with fuzzing(RandomWalkPolicy(seed=41)) as sched:
            for _ in range(20):
                sched.on_point("sync", "sem_post", "sem0")
            text = cell.diagnostics()
        assert "fuzz: active schedule" in text
        assert "random(seed=41)" in text

    def test_diagnostics_silent_without_scheduler(self):
        from repro.runtime.sync import AbortCell

        cell = AbortCell()
        cell.trigger("test abort")
        assert "fuzz" not in cell.diagnostics()


# -- CLI ------------------------------------------------------------------


class TestFuzzCli:
    def test_run_seeded_scenario(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "run", "--scenario", "seeded_dropped_post",
                   "--schedules", "5", "--elems", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "detected@" in out

    def test_run_healthy_scenario(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "run", "--scenario", "ring",
                   "--schedules", "2", "--elems", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_run_unknown_scenario(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "run", "--scenario", "nope"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_saves_and_replays_seed_file(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        scenario = _broken_but_declared_healthy()
        monkeypatch.setitem(SCENARIOS, scenario.name, scenario)
        rc = main([
            "fuzz", "run", "--scenario", scenario.name,
            "--schedules", "3", "--elems", "32",
            "--save-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "failing schedule found" in out
        seed_file = tmp_path / f"{scenario.name}.json"
        assert seed_file.exists()

        rc = main(["fuzz", "replay", str(seed_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "failure reproduced: yes" in out
        assert "identical to stored trace: yes" in out

        rc = main(["fuzz", "report", str(seed_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert scenario.name in out

    def test_replay_missing_file(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "replay", "/nonexistent/seed.json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err
