"""Byte-level pins of every builtin plan.

Each builtin plan — every :data:`~repro.plan.builders.BUILDERS`
algorithm at K = 8 chunks, plus the overlapped DGX-1 double tree at
K = 4 that the crash-recovery drills run — is pinned raw and compiled
on ``dgx1`` and on ``dgx1-nolink37``.  A digest covers the plan's
``to_json()``, its ``describe()`` text and the verifier's diagnostics,
so any change to how a plan is stored, printed or checked shows up
here.  The digests live in ``data/plan_digests.json``; this test only
reads them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.plan import build_plan, build_double_tree_plan, compile_plan
from repro.plan import verify_plan
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "plan_digests.json").read_text()
)

NBYTES = 1e6
#: 25,508 ResNet-50 parameters (the table divided by 1000) x 8 bytes.
RECOVER_NBYTES = 204_064.0


def _dgx1():
    return dgx1_topology()


def _dgx1_nolink37():
    topo = dgx1_topology().without_link(3, 7)
    topo.name = "dgx1-nolink37"
    return topo


TOPOLOGIES = {"dgx1": _dgx1, "dgx1-nolink37": _dgx1_nolink37}


def _builtin(name: str):
    """The raw plan and the router preference it compiles with."""
    if name == "recover_double_tree_k4":
        plan = build_double_tree_plan(
            8, RECOVER_NBYTES, nchunks=4, trees=dgx1_trees(),
            overlapped=True,
        )
        return plan, DETOUR_NODES
    algorithm, _, variant = name.partition(":")
    kwargs = {}
    if algorithm in ("tree", "double_tree"):
        kwargs = dict(nchunks=8, overlapped=variant == "overlapped")
    return build_plan(algorithm, 8, NBYTES, **kwargs), ()


PLANS = (
    "ring",
    "tree",
    "tree:overlapped",
    "double_tree",
    "double_tree:overlapped",
    "halving_doubling",
    "recover_double_tree_k4",
)
TARGETS = ("raw", "dgx1", "dgx1-nolink37")


def plan_digest(plan, topo=None) -> str:
    report = verify_plan(plan, topo=topo, raise_on_error=False)
    text = "\n\0\n".join([
        plan.to_json(),
        plan.describe(),
        "\n".join(report.errors),
    ])
    return hashlib.sha256(text.encode()).hexdigest()


def compute(name: str, target: str) -> str:
    plan, preference = _builtin(name)
    if target == "raw":
        return plan_digest(plan)
    topo = TOPOLOGIES[target]()
    compiled, _ = compile_plan(
        plan, topo, router=Router(topo, detour_preference=preference)
    )
    return plan_digest(compiled, topo)


def test_every_builtin_plan_is_pinned():
    assert sorted(DIGESTS) == sorted(
        f"{name}@{target}" for name in PLANS for target in TARGETS
    )


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", PLANS)
def test_plan_bytes_are_pinned(name, target):
    assert compute(name, target) == DIGESTS[f"{name}@{target}"]
