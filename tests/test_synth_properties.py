"""Property-based tests for the plan synthesis subsystem.

Hypothesis drives seeded random fabrics (connected meshes, switch
hierarchies, degraded variants) through the full synthesis pipeline and
checks the invariants every emitted plan must satisfy:

- synthesis always finds a gated candidate on a :func:`random_fabric`
  (the fabrics are connected by construction),
- the winning plan passes static verification against the effective
  GPU topology it was synthesized for,
- interpreter execution is *bit-exact*: integer per-rank inputs reduce
  to exactly the element-wise sum on every rank, with no leftover
  wire frames,
- mutation fuzzing keeps the verifier and the interpreter consistent:
  no sampled mutant is accepted by one judge and rejected by the other.

Settings are derandomized with ``deadline=None``: each example runs a
real structure search, so wall-clock deadlines would flake.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz.mutate import fuzz_mutations
from repro.plan.interpreter import PlanInterpreter
from repro.plan.verifier import verify_plan
from repro.synth.fabrics import random_fabric, topology_from_json, topology_to_json
from repro.synth.search import effective_gpu_topology, synthesize_plan

PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Synthesis message size for every example; execution re-derives the
#: element layout from the actual buffers, so one size suffices.
NBYTES = 4e6

#: Interpreter problem size (divisible by every chunking synthesis
#: emits at ``nchunks=2``).
ELEMS = 64

fabric_seeds = st.integers(min_value=0, max_value=10_000)


def _synthesize(seed: int):
    topo = random_fabric(seed)
    candidate = synthesize_plan(
        topo, NBYTES, nchunks=2, pipelines=(1,), seed=seed
    )
    return topo, candidate


@PROPERTY_SETTINGS
@given(seed=fabric_seeds)
def test_synthesized_plans_always_verify(seed: int) -> None:
    """Every random fabric yields a plan the static verifier accepts,
    both structurally and against the effective GPU topology."""
    topo, candidate = _synthesize(seed)
    assert verify_plan(candidate.plan, raise_on_error=False).ok
    eff = effective_gpu_topology(topo)
    report = verify_plan(
        candidate.plan, topo=eff, raise_on_error=False
    )
    assert report.ok, report.errors


@PROPERTY_SETTINGS
@given(seed=fabric_seeds)
def test_synthesized_plans_execute_bit_exact(seed: int) -> None:
    """Integer inputs reduce to exactly the element-wise sum on every
    rank — no divergence, no dropped or duplicated contribution."""
    _, candidate = _synthesize(seed)
    plan = candidate.plan
    rng = np.random.default_rng(seed)
    inputs = [
        rng.integers(-100, 100, ELEMS).astype(np.float64)
        for _ in range(plan.nnodes)
    ]
    expected = np.sum(inputs, axis=0)
    report = PlanInterpreter(
        plan, total_elems=ELEMS
    ).run(inputs)
    for rank, out in enumerate(report.outputs):
        assert np.array_equal(out, expected), f"rank {rank} diverged"
    assert report.leftover_frames == 0


# The sampled mutants race on purpose; --sanitize would report them.
@pytest.mark.no_sanitize
@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=500))
def test_mutants_keep_verifier_and_interpreter_consistent(
    seed: int,
) -> None:
    """Plan-mutation fuzzing on the synthesized winner: the verifier's
    verdict and the dynamic oracle's behaviour never disagree on any
    sampled mutant."""
    _, candidate = _synthesize(seed)
    outcome = fuzz_mutations(
        candidate.plan,
        algorithm=candidate.strategy,
        total_elems=ELEMS,
        mutants=6,
        seed=seed,
    )
    assert not outcome.inconsistent, outcome.describe()


@PROPERTY_SETTINGS
@given(seed=fabric_seeds)
def test_topology_json_round_trips(seed: int) -> None:
    """The soak's failure artifacts replay exactly: JSON round-trip
    preserves every link spec, switch id, and the node count."""
    topo = random_fabric(seed)
    back = topology_from_json(topology_to_json(topo))
    assert back.nnodes == topo.nnodes
    assert back.switch_ids == topo.switch_ids
    original = {
        (s.u, s.v, s.lane): (s.alpha, s.beta, s.kind)
        for s in topo.links()
    }
    restored = {
        (s.u, s.v, s.lane): (s.alpha, s.beta, s.kind)
        for s in back.links()
    }
    assert restored == original
