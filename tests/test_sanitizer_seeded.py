"""True-positive power: every seeded-broken kernel must be flagged with
the *exact* diagnostic — the racing chunk id and the offending sync
object — not merely "something looked off".

These tests are the acceptance gate for the sanitizer's usefulness: a
detector that can't name the chunk and the missing/ordering-violating
sync op can't guide a fix on the real CUDA runtime either.
"""

from __future__ import annotations

import pytest

from repro.sanitizer.scenarios import SCENARIOS, run_scenario, scenario_names

pytestmark = pytest.mark.no_sanitize  # these runs seed bugs on purpose


@pytest.mark.parametrize("name", scenario_names(seeded=True))
def test_seeded_scenario_is_flagged(name):
    result = run_scenario(name, elems=64)
    assert result.passed, result.detail
    assert not result.report.ok


def test_dropped_post_names_the_unpublished_chunk():
    result = run_scenario("seeded_dropped_post", elems=64)
    races = result.report.races
    assert len(races) == 1
    race = races[0]
    # Chunk 0 was published by the post; only chunk 1 races.
    assert race.chunk == 1
    assert race.buffer == "gpu0"
    assert {race.first.kind, race.second.kind} == {"write", "read"}
    assert {race.first.thread, race.second.thread} == {
        "producer", "consumer"
    }
    text = race.describe()
    # The consumer's side shows the handoff semaphore it *did* sync on —
    # pointing straight at the missing second post.
    assert "handoff" in text
    assert "chunk 1" in text
    # Both racing sites are real code locations in the scenario body.
    assert "scenarios.py" in text


def test_unlock_before_write_is_a_reduce_reduce_race():
    result = run_scenario("seeded_unlock_before_write", elems=64)
    races = result.report.races
    assert len(races) == 1
    race = races[0]
    assert race.chunk == 0
    assert race.first.kind == "reduce"
    assert race.second.kind == "reduce"
    # The offending lock appears in the last-sync context: the threads
    # DID use grad-lock, just released it before the write it guards.
    assert "grad-lock" in race.describe()


def test_overlapping_writes_name_chunk_and_both_kernels():
    result = run_scenario("seeded_overlapping_writes", elems=64)
    races = result.report.races
    assert len(races) == 1
    race = races[0]
    assert race.chunk == 2
    assert race.first.kind == "write"
    assert race.second.kind == "write"
    assert {race.first.thread, race.second.thread} == {
        "bcast-a", "bcast-b"
    }


def test_zero_copy_rewrite_names_chunk_and_both_kernels():
    result = run_scenario("seeded_zero_copy_rewrite", elems=64)
    races = result.report.races
    assert len(races) == 1
    race = races[0]
    # The child's rewrite of its own chunk races the parent's in-place
    # read of the child's memory.
    assert race.buffer == "gpu1"
    assert race.chunk == 0
    assert (race.first.kind, race.first.thread) == ("reduce", "reduce t0 g1")
    assert (race.second.kind, race.second.thread) == ("read", "reduce t0 g0")


def test_zero_copy_rewrite_caught_by_crc_without_tracing():
    from repro.sanitizer import hooks

    assert hooks.active() is None
    # The scenario body raises unless the parent's CRC check aborted the
    # run with a LinkFaultError.
    SCENARIOS["seeded_zero_copy_rewrite"].fn(64)


def test_relay_rewrite_names_chunk_and_both_kernels():
    result = run_scenario("seeded_relay_rewrite", elems=64)
    races = result.report.races
    assert len(races) == 1
    race = races[0]
    # The child's rewrite races the relay's in-place read of the child's
    # memory: a detoured uplink stages nothing either.
    assert race.buffer == "gpu1"
    assert race.chunk == 0
    assert (race.first.kind, race.first.thread) == ("reduce", "reduce t0 g1")
    assert (race.second.kind, race.second.thread) == (
        "read", "relay-up t0 1->2->0"
    )


def test_relay_rewrite_caught_by_crc_without_tracing():
    from repro.sanitizer import hooks

    assert hooks.active() is None
    # The scenario body raises unless the relay's CRC check aborted the
    # run with a LinkFaultError.
    SCENARIOS["seeded_relay_rewrite"].fn(64)


def test_sem_cycle_names_both_semaphores_and_waiters():
    result = run_scenario("seeded_sem_cycle", elems=64)
    cycles = result.report.wait_cycles
    assert len(cycles) == 1
    text = cycles[0].describe()
    assert "S1" in text
    assert "S2" in text
    assert "cycle-a" in text
    assert "cycle-b" in text
    # The blocked set is surfaced too (informational).
    assert len(result.report.blocked) == 2


def test_seeded_registry_is_complete():
    assert set(scenario_names(seeded=True)) == {
        "seeded_dropped_post",
        "seeded_unlock_before_write",
        "seeded_overlapping_writes",
        "seeded_zero_copy_rewrite",
        "seeded_relay_rewrite",
        "seeded_sem_cycle",
    }
    # Every seeded scenario documents what it expects to be caught.
    for name in scenario_names(seeded=True):
        assert SCENARIOS[name].expect.kind != "clean"
