"""Byte-level pins of the mutation fuzzer's output.

For every builtin plan of ``test_plan_digests`` (raw and compiled on
each target) and every mutation :func:`~repro.fuzz.candidate_mutations`
offers, the sha256 of the mutant's ``to_json()`` is pinned in
``data/mutant_digests.json``, in candidate order.  So a change to how
:func:`~repro.fuzz.mutate_plan` writes a mutant that moves one byte of
one mutant fails here, and names the mutation.

A few thousand mutants take minutes to serialize, so tier-1 checks
every mutant of four plans that together cover raw and compiled plans,
detour legs and aggregated chunk sets; the rest run with ``-m slow``.
Regenerate the file with ``python tests/test_mutant_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.fuzz import candidate_mutations, mutate_plan
from repro.plan import compile_plan
from repro.topology.routing import Router

sys.path.insert(0, str(Path(__file__).parent))
from test_plan_digests import PLANS, TARGETS, TOPOLOGIES, _builtin  # noqa: E402

DATA = Path(__file__).parent / "data" / "mutant_digests.json"

TIER1 = (
    "ring@raw",
    "tree:overlapped@dgx1-nolink37",
    "halving_doubling@dgx1-nolink37",
    "recover_double_tree_k4@dgx1",
)


def _plan(key: str):
    name, _, target = key.partition("@")
    plan, preference = _builtin(name)
    if target == "raw":
        return plan
    topo = TOPOLOGIES[target]()
    compiled, _ = compile_plan(
        plan, topo, router=Router(topo, detour_preference=preference)
    )
    return compiled


def mutant_digests(key: str) -> list[str]:
    plan = _plan(key)
    return [
        hashlib.sha256(mutate_plan(plan, m).to_json().encode()).hexdigest()
        for m in candidate_mutations(plan)
    ]


KEYS = tuple(f"{name}@{target}" for name in PLANS for target in TARGETS)


def test_every_builtin_plan_is_pinned():
    assert sorted(json.loads(DATA.read_text())) == sorted(KEYS)


@pytest.mark.parametrize("key", [
    key if key in TIER1 else pytest.param(key, marks=pytest.mark.slow)
    for key in KEYS
])
def test_mutants_are_pinned(key):
    pinned = json.loads(DATA.read_text())[key]
    plan = _plan(key)
    cands = candidate_mutations(plan)
    assert len(cands) == len(pinned)
    for mutation, digest in zip(cands, pinned):
        text = mutate_plan(plan, mutation).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (
            f"{key}: {mutation.describe(plan)}"
        )


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({key: mutant_digests(key) for key in KEYS}, indent=0)
        + "\n"
    )
