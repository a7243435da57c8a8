"""Chaos soak: seeded crash-at-random-step drills through the CLI.

Each drill is one full recovery story: the seed draws a victim GPU, a
crash iteration, and a crash chunk; the functional cluster aborts
fail-fast, drains, re-embeds the double tree over the 7 survivors, and
resumes.  Exit code 0 from ``repro chaos crash --recover`` asserts the
recovered weights are **bit-identical** to the fault-free serial
reference replaying the same reduction orders — so a seed sweep is a
soak over the whole abort -> drain -> re-embed -> resume state machine.

The 20-seed sweep is marked ``slow`` (nightly CI); a 3-seed smoke subset
runs in the default (tier-1) suite.
"""

from __future__ import annotations

import pytest

from repro.cli import main

#: Seeds whose drawn (gpu, iteration, chunk) triples cover a spread of
#: victims and crash points; the full sweep is the nightly soak.
SOAK_SEEDS = tuple(range(20))

#: Cheap subset keeping the recovery path exercised on every tier-1 run.
SMOKE_SEEDS = (0, 7, 13)


def _drill(seed: int, *, policy: str = "reembed") -> int:
    return main([
        "chaos", "crash", "--recover",
        "--gpu", "-1",
        "--seed", str(seed),
        "--iterations", "2",
        "--elems", "256",
        "--policy", policy,
    ])


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_recovery_drill_smoke(seed, capsys):
    assert _drill(seed) == 0
    out = capsys.readouterr().out
    assert "bit-identical to serial recovery reference: yes" in out
    assert "re-embed" in out
    assert "policy: reembed — degraded" in out


@pytest.mark.slow
@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_recovery_drill_soak(seed, capsys):
    """20 seeded kill-a-random-GPU-at-a-random-step runs, every one
    recovering to bit-exact weights."""
    assert _drill(seed) == 0
    out = capsys.readouterr().out
    assert "bit-identical to serial recovery reference: yes" in out


@pytest.mark.slow
@pytest.mark.parametrize("seed", (1, 11))
def test_recovery_drill_soak_restart_policy(seed, capsys):
    """The forced-restart leg of the policy also converges bit-exactly
    (replacement GPU rejoins, healthy 8-GPU schedule redoes the work)."""
    assert _drill(seed, policy="restart") == 0
    out = capsys.readouterr().out
    assert "bit-identical to serial recovery reference: yes" in out
