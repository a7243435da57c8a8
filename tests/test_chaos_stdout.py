"""The recovery drills' stdout, byte for byte.

Each case is one recovery step of the ``chaos drills`` CI job, run in
process through :func:`repro.cli.main`.  The drills are seeded and their
output carries no timing, so the whole transcript — timeline, decision,
fault stats, re-embedded shards, verdict — is pinned against a golden
file in ``tests/data/chaos_stdout``.  A change to the recovery path that
moves one byte of it fails here; regenerate a golden only when the
change means to alter what the drill prints, and say why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "chaos_stdout"

#: Golden file stem -> the ``repro`` command line of its CI step.
STEPS = {
    "crash_recover": "chaos crash --recover --gpu -1 --seed 7 --elems 256",
    "crash_recover_restart": (
        "chaos crash --recover --policy restart --gpu -1 --seed 7 "
        "--elems 256"
    ),
    "crash_recover_soak3": (
        "chaos crash --recover --soak 3 --seed 7 --elems 256"
    ),
    "elastic": "chaos elastic --events crash:3,join:3 --seed 7 --elems 256",
    "elastic_restart": (
        "chaos elastic --events crash:3,join:3 --policy restart --seed 7 "
        "--elems 256"
    ),
    "plan": "chaos plan --seed 7 --elems 256",
    "plan_cascade": "chaos plan --seed 7 --elems 256 --cascade",
    "plan_cascade_restart": (
        "chaos plan --seed 7 --elems 256 --cascade --policy restart"
    ),
}


def test_every_golden_has_a_step():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(STEPS)


@pytest.mark.parametrize("name", sorted(STEPS))
def test_recovery_drill_stdout_matches_golden(name, capsys):
    assert main(STEPS[name].split()) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"{name}.txt").read_bytes()
