"""Property tests: the static analyzer against the DES, adversarially.

Two claims carry the analyzer's whole value:

- **verdict equivalence** — every plan the synthesis gate's static
  verifier accepts (its ordering proof included) is accepted by the
  simulation ordering oracle too, which is why the gate runs no DES
  ordering check;
- **bound soundness** — the static α-β lower bound never exceeds the
  simulated makespan (otherwise autotuner pruning could discard a true
  winner).

Both are checked here over every hand-written builder on the intact and
degraded stock machines, and over the same seeded random-fabric
families the synthesis soak uses, where the synthesized candidates
(double tree, forests, ring, hypercube) join the builders.  The tier-1
run samples; the ``slow``-marked sweep walks 100+ fabrics like the
nightly soak.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze import static_lower_bound
from repro.plan import build_plan, verify_plan
from repro.plan.lowering import simulate_plan
from repro.sim.oracle import check_plan_ordering
from repro.synth.fabrics import random_fabric
from repro.synth.search import (
    compile_candidate,
    effective_gpu_topology,
    search_structures,
    synthesize_raws,
)
from repro.topology.dgx1 import dgx1_topology
from repro.topology.dgx2 import dgx2_topology
from repro.topology.routing import Router

ALGORITHMS = ("ring", "tree", "double_tree", "halving_doubling")


def _raws(nnodes, nbytes, nchunks=2):
    """Every builder plan that exists at this node count."""
    raws = [("ring", build_plan("ring", nnodes, nbytes))]
    if nnodes >= 2:
        raws.append((
            "tree", build_plan("tree", nnodes, nbytes, nchunks=nchunks)
        ))
        raws.append((
            "double_tree",
            build_plan("double_tree", nnodes, nbytes, nchunks=nchunks),
        ))
        if nnodes & (nnodes - 1) == 0:
            raws.append((
                "halving_doubling",
                build_plan("halving_doubling", nnodes, nbytes),
            ))
    return raws


def _check_one(plan, topo, router):
    """static verdict == DES verdict, and LB <= simulated time.

    Returns False when the candidate never got far enough to compare
    (compile rejected, or the DES itself refused the plan).
    """
    prepared = compile_candidate(plan, topo, router=router)
    if prepared is None:
        return False
    compiled, _notes = prepared
    static_ok = verify_plan(compiled, topo=topo, raise_on_error=False).ok
    try:
        outcome = simulate_plan(compiled, topo=topo)
    except Exception:
        return False
    des_ok = check_plan_ordering(
        outcome.plan, outcome.dag, outcome.sim
    ).ok
    assert static_ok == des_ok, (
        f"verifier says {static_ok}, DES oracle says {des_ok}"
    )
    lb = static_lower_bound(compiled, topo)
    assert lb <= outcome.total_time * (1 + 1e-9), (
        f"lower bound {lb} exceeds simulated {outcome.total_time}"
    )
    return True


def _sweep_fabric(seed: int, nbytes: float) -> int:
    """Builder plans and every synthesized candidate on one fabric."""
    fabric = random_fabric(seed)
    topo = effective_gpu_topology(fabric)
    router = Router(topo)
    raws = _raws(topo.nnodes, nbytes) + synthesize_raws(
        search_structures(fabric, seed=seed), nbytes
    )
    return sum(_check_one(raw, topo, router) for _name, raw in raws)


class TestBuildersAgainstDes:
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        nbytes=st.floats(min_value=256.0, max_value=1e8),
        nchunks=st.integers(min_value=1, max_value=6),
        degraded=st.booleans(),
    )
    @settings(max_examples=16, deadline=None)
    def test_dgx1_verdicts_agree_and_bound_holds(
        self, algorithm, nbytes, nchunks, degraded
    ):
        topo = dgx1_topology()
        if degraded:
            topo = topo.without_link(3, 7)
        kwargs = (
            {"nchunks": nchunks}
            if algorithm in ("tree", "double_tree") else {}
        )
        plan = build_plan(algorithm, topo.nnodes, nbytes, **kwargs)
        assert _check_one(plan, topo, Router(topo))

    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        nbytes=st.floats(min_value=256.0, max_value=1e8),
    )
    @settings(max_examples=8, deadline=None)
    def test_dgx2_verdicts_agree_and_bound_holds(self, algorithm, nbytes):
        topo = effective_gpu_topology(dgx2_topology())
        kwargs = (
            {"nchunks": 2} if algorithm in ("tree", "double_tree") else {}
        )
        plan = build_plan(algorithm, topo.nnodes, nbytes, **kwargs)
        assert _check_one(plan, topo, Router(topo))

    def test_degraded_dgx2_verdicts_agree(self):
        # Cut one direct lane: traffic reroutes, verdicts must still
        # match.
        topo = effective_gpu_topology(dgx2_topology().without_link(0, 1))
        router = Router(topo)
        checked = sum(
            _check_one(raw, topo, router)
            for _name, raw in _raws(topo.nnodes, 1e6)
        )
        assert checked > 0


class TestRandomFabrics:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_verdicts_agree_on_random_fabrics(self, seed):
        # Zero comparable candidates on a pathological fabric is fine;
        # a verdict mismatch or bound violation asserts inside.
        _sweep_fabric(seed, nbytes=1e6)

    @pytest.mark.slow
    def test_hundred_fabric_sweep(self):
        checked = sum(_sweep_fabric(seed, 1e6) for seed in range(120))
        # The families produce several comparable builder plans per
        # fabric; demand real coverage, not a vacuous pass.
        assert checked >= 300
