"""Byte-level pins of every shipped program, and the build path's detours.

The package ships the compiled programs of the tree-runtime
configurations the trainers run (``repro/runtime/programs/*.json``).
Each is rebuilt here from its configuration — plan built, detours
relayed, :func:`~repro.plan.verifier.verify_plan` re-run — compiled, and
compared byte for byte with the shipped file, as
``tests/test_plan_digests.py`` does for plans.  A shipped program is
loaded without the compiler, so this test is what keeps it honest.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import numpy as np
import pytest

from repro.plan import verify_plan
from repro.plan.compiler import shipped_configs, tree_plan, tree_program
from repro.runtime import TreeAllReduceRuntime, tree_reduce_order
from repro.runtime.executor import (
    Program,
    program_filename,
    program_key,
    shipped_program,
)
from repro.topology.dgx1_trees import DETOURED_EDGES
from repro.topology.logical import two_trees

PROGRAMS = resources.files("repro.runtime") / "programs"
CONFIGS = shipped_configs()
IDS = [f"overlapped={c['overlapped']}" for c in CONFIGS]


def relays(program) -> dict[tuple[int, int], int]:
    """``(child, parent) -> relay rank`` of every relayed tree edge: a
    relay block forwarding ``src -> dst`` maps the reduce direction."""
    out = {}
    for (rank, tb), _ in program.blocks:
        if isinstance(tb, tuple) and tb[0] == "relay":
            _, src, dst, _tree, phase = tb
            out[(dst, src) if phase == "broadcast" else (src, dst)] = rank
    return out


def _key(config) -> dict:
    return program_key(
        config["trees"], chunks_per_tree=config["chunks_per_tree"],
        overlapped=config["overlapped"], detour_map=config["detour_map"],
    )


def test_every_shipped_program_has_a_configuration():
    shipped = sorted(p.name for p in PROGRAMS.iterdir() if p.is_file())
    assert shipped == sorted(program_filename(_key(c)) for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_shipped_program_rebuilds_byte_identical(config):
    plan = tree_plan(**config)
    report = verify_plan(plan)
    assert report.ok
    rebuilt = tree_program(**config, portable=True)
    shipped = (PROGRAMS / program_filename(_key(config))).read_text()
    assert rebuilt.to_json() == shipped
    program = Program.from_json(shipped)
    assert program.plan_sha256 == hashlib.sha256(
        plan.to_json().encode()
    ).hexdigest()
    assert program.key == _key(config)


@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_shipped_program_relays_exactly_the_detoured_edges(config):
    program = shipped_program(_key(config))
    assert program is not None
    assert relays(program) == DETOURED_EDGES


@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_shipped_program_matches_the_oracle(config, rng):
    runtime = TreeAllReduceRuntime(
        config["trees"], total_elems=1000,
        chunks_per_tree=config["chunks_per_tree"],
        overlapped=config["overlapped"], detour_map=config["detour_map"],
    )
    inputs = [rng.normal(size=1000) for _ in range(8)]
    expected = tree_reduce_order(runtime.trees, runtime.layout)(inputs)
    for out in runtime.run(inputs).outputs:
        assert np.array_equal(out, expected)


@pytest.mark.parametrize(
    "detour_map",
    [{}, {(0, 1): 5}, {(0, 1): 5, (2, 4): 7}],
    ids=["none", "one", "two"],
)
def test_build_path_relays_exactly_the_callers_detours(detour_map, rng):
    trees = two_trees(8)
    edges = {e for tree in trees for e in tree.up_edges()}
    assert set(detour_map) <= edges
    program = tree_program(
        trees, chunks_per_tree=3, overlapped=True, detour_map=detour_map
    )
    assert relays(program) == detour_map
    runtime = TreeAllReduceRuntime(
        trees, total_elems=120, chunks_per_tree=3, detour_map=detour_map
    )
    assert relays(runtime.program) == detour_map
    inputs = [rng.normal(size=120) for _ in range(8)]
    expected = tree_reduce_order(trees, runtime.layout)(inputs)
    for out in runtime.run(inputs).outputs:
        assert np.array_equal(out, expected)
