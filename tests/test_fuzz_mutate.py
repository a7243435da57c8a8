"""Plan-mutation fuzzing: the verifier verdict must track behaviour.

For every mutant plan (a transfer op dropped, duplicated, or swapped
with a neighbour), the static :func:`~repro.plan.verifier.verify_plan`
verdict must agree with what actually happens when the interpreter runs
the mutant — the biconditional "verifies ⇔ runs clean".  A mutant the
verifier blesses but that mis-reduces is an *unsound* finding; a mutant
the verifier rejects but that runs clean is an *incomplete* one.  The
tier-1 gate drives ≤100 mutants through ring and double-tree plans and
requires zero of either.
"""

import pytest

from repro.errors import ConfigError
from repro.fuzz import (
    DROP,
    DUPLICATE,
    SWAP,
    PlanMutation,
    candidate_mutations,
    fuzz_builder_mutations,
    mutate_plan,
    mutant_behaviour,
    sample_mutations,
)
from repro.plan import build_plan, verify_plan
from repro.runtime.sync import SpinConfig

FAST = SpinConfig(timeout=0.5)


def ring_plan(nnodes=4, elems=64):
    return build_plan("ring", nnodes, float(elems * 8))


class TestPlanMutation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            PlanMutation(kind="scramble", op_id=0)

    def test_negative_op_rejected(self):
        with pytest.raises(ConfigError):
            PlanMutation(kind=DROP, op_id=-1)

    def test_describe_names_the_op(self):
        plan = ring_plan()
        mutation = candidate_mutations(plan)[0]
        text = mutation.describe(plan)
        assert mutation.kind in text
        assert str(mutation.op_id) in text


class TestMutatePlan:
    def test_drop_removes_one_op_and_renumbers(self):
        plan = ring_plan()
        mutation = next(
            m for m in candidate_mutations(plan) if m.kind == DROP
        )
        mutant = mutate_plan(plan, mutation)
        assert len(mutant.ops) == len(plan.ops) - 1
        assert [op.op_id for op in mutant.ops] == list(range(len(mutant.ops)))

    def test_duplicate_adds_one_op(self):
        plan = ring_plan()
        mutation = next(
            m for m in candidate_mutations(plan) if m.kind == DUPLICATE
        )
        mutant = mutate_plan(plan, mutation)
        assert len(mutant.ops) == len(plan.ops) + 1
        twin, copy = mutant.ops[mutation.op_id], mutant.ops[mutation.op_id + 1]
        assert (twin.kind, twin.rank, twin.chunk) == (
            copy.kind, copy.rank, copy.chunk
        )

    def test_swap_preserves_op_count(self):
        plan = ring_plan()
        swaps = [m for m in candidate_mutations(plan) if m.kind == SWAP]
        if not swaps:
            pytest.skip("no adjacent same-block transfer pair in this plan")
        mutant = mutate_plan(plan, swaps[0])
        assert len(mutant.ops) == len(plan.ops)

    def test_out_of_range_op_rejected(self):
        plan = ring_plan()
        with pytest.raises(ConfigError, match="op"):
            mutate_plan(plan, PlanMutation(kind=DROP, op_id=10_000))

    def test_deps_stay_dense_after_mutation(self):
        plan = ring_plan()
        for mutation in sample_mutations(plan, count=12, seed=3):
            mutant = mutate_plan(plan, mutation)
            ids = {op.op_id for op in mutant.ops}
            for op in mutant.ops:
                assert set(op.deps) <= ids
                assert all(d < op.op_id or d != op.op_id for d in op.deps)


class TestSampling:
    def test_sample_is_deterministic(self):
        plan = ring_plan()
        a = sample_mutations(plan, count=10, seed=4)
        b = sample_mutations(plan, count=10, seed=4)
        assert a == b

    def test_sample_bounded_by_candidates(self):
        plan = ring_plan()
        pool = candidate_mutations(plan)
        assert len(sample_mutations(plan, count=10_000, seed=0)) == len(pool)


class TestBehaviourOracle:
    def test_baseline_plan_runs_clean(self):
        plan = ring_plan()
        assert verify_plan(plan, raise_on_error=False).ok
        clean, failure = mutant_behaviour(plan, total_elems=64, spin=FAST)
        assert clean and failure == ""

    def test_dropped_transfer_misbehaves(self):
        plan = ring_plan()
        mutation = next(
            m for m in candidate_mutations(plan) if m.kind == DROP
        )
        mutant = mutate_plan(plan, mutation)
        clean, failure = mutant_behaviour(mutant, total_elems=64, spin=FAST)
        assert not clean
        assert failure


class TestTier1Gate:
    """The ≤100-mutant gate: zero unsound, zero incomplete."""

    # Mutants race on purpose: the double-tree ones trip the suite's
    # --sanitize tracer, which would report the seeded bugs themselves.
    @pytest.mark.parametrize("algorithm", [
        "ring",
        pytest.param("double_tree", marks=pytest.mark.no_sanitize),
    ])
    def test_verifier_tracks_behaviour(self, algorithm):
        outcome = fuzz_builder_mutations(
            algorithm,
            nnodes=4,
            nchunks=2,
            total_elems=64,
            mutants=50,
            seed=0,
            spin=FAST,
        )
        assert len(outcome.outcomes) <= 100
        assert outcome.inconsistent == [], outcome.describe()
        assert outcome.unsound == []
        # The gate has teeth: most mutants must actually be killed.
        assert outcome.killed > len(outcome.outcomes) // 2

    def test_baseline_failure_is_a_config_error(self):
        plan = ring_plan()
        broken = mutate_plan(plan, candidate_mutations(plan)[0])
        with pytest.raises(ConfigError, match="baseline"):
            from repro.fuzz import fuzz_mutations

            fuzz_mutations(
                broken, algorithm="ring", total_elems=64, mutants=2,
                spin=FAST,
            )
