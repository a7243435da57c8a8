"""Plan-mutation fuzzing: does the static verifier track the runtime?

The schedule fuzzer (:mod:`repro.fuzz.harness`) perturbs *timing* of
correct programs; this module perturbs the *programs themselves*.  A
known-good plan is mutated — one transfer op dropped, duplicated, or
swapped with its thread-block neighbour — and both judges rule on the
mutant independently:

- **static**: :func:`repro.plan.verifier.verify_plan` (no execution);
- **dynamic**: :class:`repro.plan.interpreter.PlanInterpreter` handed
  the static verdict's report as is, so it runs a rejected mutant too,
  under a bit-exact oracle.

The fuzz property is the *biconditional*: a mutant verifies cleanly iff
it runs cleanly.  A mutant that verifies but misbehaves is a verifier
**soundness** hole (the dangerous direction — a bad plan reaching
hardware); one that is rejected but runs perfectly is a **completeness**
gap (the verifier crying wolf).  Both are reported as inconsistent.

The dynamic oracle is made order-insensitive on purpose: inputs are
small positive *integers* in float64, so every legal summation order
produces bit-identical results and ``np.array_equal(out, np.sum(...))``
accepts exactly the behaviours a correct collective may exhibit, while
any dropped or doubled contribution changes the sum.  Run cleanliness
additionally requires zero leftover wire frames — the runtime symptom
of an unconsumed SEND that produces no numeric damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.plan.builders import build_plan
from repro.plan.interpreter import PlanInterpreter
from repro.plan.ir import K_COPY, Plan
from repro.plan.verifier import VerifyReport, verify_plan
from repro.runtime.sync import SpinConfig

__all__ = [
    "DROP",
    "DUPLICATE",
    "SWAP",
    "PlanMutation",
    "MutantOutcome",
    "MutationFuzzOutcome",
    "candidate_mutations",
    "sample_mutations",
    "mutate_plan",
    "mutant_behaviour",
    "fuzz_mutations",
    "fuzz_builder_mutations",
]

#: Mutation operators.
DROP = "drop"
DUPLICATE = "duplicate"
SWAP = "swap"

_KINDS = (DROP, DUPLICATE, SWAP)

#: Spin config for mutant execution: a mutant that deadlocks should
#: abort fast, not burn the full default timeout.
MUTANT_SPIN = SpinConfig(timeout=0.5)


@dataclass(frozen=True)
class PlanMutation:
    """One syntactic edit to a plan.

    Attributes:
        kind: ``"drop"`` (remove the op, splicing its deps through to
            its dependents), ``"duplicate"`` (insert a copy right after
            it), or ``"swap"`` (exchange it with the *next* op, which
            must belong to the same thread block; any ordering dep
            between the pair is removed — that is the mutation).
        op_id: target op id in the original plan.
    """

    kind: str
    op_id: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown mutation kind {self.kind!r}; "
                f"expected one of {_KINDS}"
            )
        if self.op_id < 0:
            raise ConfigError("mutation op_id must be non-negative")

    def describe(self, plan: Plan) -> str:
        return f"{self.kind} {plan.name_of(self.op_id)}"


def candidate_mutations(plan: Plan) -> list[PlanMutation]:
    """Every applicable single mutation, in deterministic order.

    Only transfer ops are mutated: COPY markers are zero-work barriers
    whose removal cannot change the dataflow the dynamic oracle
    observes, so mutating them only measures verifier conservatism, not
    the soundness/completeness property this fuzzer is after.  Swaps
    are restricted to *adjacent* ops of the same thread block so the
    edit reorders exactly one program-order pair.
    """
    transfers = [code != K_COPY for code in plan.kind_code]
    cands: list[PlanMutation] = []
    for i, transfer in enumerate(transfers):
        if transfer:
            cands.append(PlanMutation(kind=DROP, op_id=i))
            cands.append(PlanMutation(kind=DUPLICATE, op_id=i))
    blocks = list(zip(plan.rank, plan.tb_id))
    for i in range(len(transfers) - 1):
        if blocks[i] == blocks[i + 1] and transfers[i] and transfers[i + 1]:
            cands.append(PlanMutation(kind=SWAP, op_id=i))
    return cands


def sample_mutations(
    plan: Plan, *, count: int, seed: int = 0
) -> list[PlanMutation]:
    """A deterministic sample of ``count`` distinct mutations."""
    cands = candidate_mutations(plan)
    if count >= len(cands):
        return cands
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(cands), size=count, replace=False)
    return [cands[i] for i in sorted(int(p) for p in picks)]


def _remap(deps: Iterable[int], idmap: dict[int, int]) -> tuple[int, ...]:
    return tuple(sorted({idmap[d] for d in deps}))


def mutate_plan(plan: Plan, mutation: PlanMutation) -> Plan:
    """Apply one mutation, renumbering ids densely.

    The mutant is a new plan (:meth:`Plan.derive`) that every op is
    copied into with :meth:`Plan.add_from`, as a compile pass maps ops;
    only the deps change.  Every mutant is *structurally* well-formed
    (dense ordered ids, backward deps) so the verifier's verdict
    reflects the collective's semantics, not bookkeeping damage from the
    edit itself.

    Raises:
        ConfigError: when the mutation does not apply to this plan
            (op out of range, swap target not followed by a same-block
            transfer).
    """
    n = len(plan)
    p = mutation.op_id
    if not 0 <= p < n:
        raise ConfigError(f"mutation targets op {p}, plan has {n}")
    if plan.kind_code[p] == K_COPY:
        raise ConfigError(
            f"mutation target {plan.name_of(p)} is not a transfer"
        )
    deps_of = plan.deps_of
    mutant = plan.derive()

    if mutation.kind == DROP:
        idmap = {old: old - (old > p) for old in range(n) if old != p}
        for i in range(n):
            if i == p:
                continue
            deps: list[int] = []
            for d in deps_of(i):
                if d == p:
                    # Splice: dependents inherit the dropped op's deps,
                    # as a real scheduler bug that loses an op would.
                    deps.extend(deps_of(p))
                else:
                    deps.append(d)
            mutant.add_from(plan, i, _remap(deps, idmap))
        return mutant

    if mutation.kind == DUPLICATE:
        idmap = {old: old + (old > p) for old in range(n)}
        for i in range(p + 1):
            mutant.add_from(plan, i, deps_of(i))
        mutant.add_from(plan, p, deps_of(p))
        for i in range(p + 1, n):
            mutant.add_from(plan, i, _remap(deps_of(i), idmap))
        return mutant

    # SWAP: exchange with the globally-next op, same thread block.
    if p + 1 >= n:
        raise ConfigError(f"swap target {plan.name_of(p)} has no successor")
    if (
        (plan.rank[p + 1], plan.tb_id[p + 1]) != (plan.rank[p], plan.tb_id[p])
        or plan.kind_code[p + 1] == K_COPY
    ):
        raise ConfigError(
            f"swap target {plan.name_of(p)} is not followed by a same-block "
            "transfer"
        )
    idmap = {old: old for old in range(n)}
    idmap[p], idmap[p + 1] = p + 1, p
    for i in range(p):
        mutant.add_from(plan, i, deps_of(i))
    # The moved-up op loses any dep on its former predecessor — the
    # reordering IS the mutation; a retained dep would be forward.
    mutant.add_from(
        plan, p + 1, _remap((d for d in deps_of(p + 1) if d != p), idmap)
    )
    mutant.add_from(plan, p, deps_of(p))
    for i in range(p + 2, n):
        mutant.add_from(plan, i, _remap(deps_of(i), idmap))
    return mutant


def mutant_behaviour(
    mutant: Plan,
    *,
    total_elems: int,
    spin: SpinConfig | None = None,
    seed: int = 0,
    report: VerifyReport | None = None,
) -> tuple[bool, str]:
    """Execute a mutant whatever its verdict and judge the run.

    ``report`` is the mutant's :func:`verify_plan` report (computed here
    when omitted); the interpreter trusts it even when it failed.

    Returns:
        ``(clean, failure)``: ``clean`` is True when the run raised
        nothing, every GPU ended bit-exact on the input sum, and no
        frame was left in any wire; ``failure`` describes the first
        observed misbehaviour otherwise.
    """
    rng = np.random.default_rng(seed)
    inputs = [
        rng.integers(1, 9, size=total_elems).astype(np.float64)
        for _ in range(mutant.nnodes)
    ]
    # Small positive integers sum exactly in float64, so the oracle is
    # insensitive to legal reduction-order changes.
    expected = np.sum(inputs, axis=0)
    if report is None:
        report = verify_plan(mutant, raise_on_error=False)
    interp = PlanInterpreter(
        mutant,
        total_elems=total_elems,
        spin=spin or MUTANT_SPIN,
        report=report,
    )
    try:
        run = interp.run(inputs)
    except ReproError as exc:
        first_line = str(exc).splitlines()[0]
        return False, f"{type(exc).__name__}: {first_line}"
    if run.leftover_frames:
        return False, f"{run.leftover_frames} unconsumed frame(s) in wires"
    for gpu, out in enumerate(run.outputs):
        if not np.array_equal(out, expected):
            return False, f"gpu {gpu} output diverges from the input sum"
    return True, ""


@dataclass(frozen=True)
class MutantOutcome:
    """Both judges' rulings on one mutant.

    Attributes:
        mutation: the edit applied.
        description: human-readable edit description.
        verdict_ok: the static verifier accepted the mutant.
        ran_clean: the dynamic oracle accepted the run.
        verifier_error: first verifier diagnostic (when rejected).
        runtime_failure: observed misbehaviour (when unclean).
    """

    mutation: PlanMutation
    description: str
    verdict_ok: bool
    ran_clean: bool
    verifier_error: str = ""
    runtime_failure: str = ""

    @property
    def consistent(self) -> bool:
        return self.verdict_ok == self.ran_clean

    @property
    def classification(self) -> str:
        if self.consistent:
            return "consistent"
        if self.verdict_ok:
            return "unsound"  # verifier passed a misbehaving plan
        return "incomplete"  # verifier rejected a clean plan


@dataclass
class MutationFuzzOutcome:
    """Aggregate result of one mutation-fuzz campaign.

    Attributes:
        algorithm: plan builder fuzzed.
        nnodes / nchunks / total_elems: campaign geometry.
        seed: campaign seed.
        outcomes: per-mutant rulings.
    """

    algorithm: str
    nnodes: int
    nchunks: int
    total_elems: int
    seed: int
    outcomes: list[MutantOutcome] = field(default_factory=list)

    @property
    def inconsistent(self) -> list[MutantOutcome]:
        return [o for o in self.outcomes if not o.consistent]

    @property
    def unsound(self) -> list[MutantOutcome]:
        return [o for o in self.outcomes if o.classification == "unsound"]

    @property
    def killed(self) -> int:
        """Mutants both judges rejected."""
        return sum(
            1 for o in self.outcomes
            if not o.verdict_ok and not o.ran_clean
        )

    @property
    def equivalent(self) -> int:
        """Mutants both judges accepted (semantically harmless edits)."""
        return sum(
            1 for o in self.outcomes if o.verdict_ok and o.ran_clean
        )

    def describe(self) -> str:
        lines = [
            f"mutation fuzz: {self.algorithm} nnodes={self.nnodes} "
            f"nchunks={self.nchunks} elems={self.total_elems} "
            f"seed={self.seed}",
            f"  {len(self.outcomes)} mutant(s): {self.killed} killed, "
            f"{self.equivalent} equivalent, "
            f"{len(self.inconsistent)} inconsistent",
        ]
        for o in self.inconsistent:
            lines.append(
                f"  [{o.classification}] {o.description}: "
                f"verifier={'ok' if o.verdict_ok else o.verifier_error!r} "
                f"runtime={'clean' if o.ran_clean else o.runtime_failure!r}"
            )
        return "\n".join(lines)


def fuzz_mutations(
    plan: Plan,
    *,
    algorithm: str,
    total_elems: int,
    mutants: int,
    seed: int = 0,
    spin: SpinConfig | None = None,
) -> MutationFuzzOutcome:
    """Run a mutation campaign against one plan.

    The unmutated plan is required to pass both judges first — fuzzing
    a baseline that already fails would make every verdict noise.

    Raises:
        ConfigError: when the baseline plan fails either judge.
    """
    baseline = verify_plan(plan, raise_on_error=False)
    if not baseline.ok:
        raise ConfigError(
            f"baseline plan fails verification: {baseline.errors[0]}"
        )
    clean, failure = mutant_behaviour(
        plan, total_elems=total_elems, spin=spin, seed=seed,
        report=baseline,
    )
    if not clean:
        raise ConfigError(f"baseline plan fails the dynamic oracle: {failure}")
    outcome = MutationFuzzOutcome(
        algorithm=algorithm,
        nnodes=plan.nnodes,
        nchunks=plan.nchunks,
        total_elems=total_elems,
        seed=seed,
    )
    for i, mutation in enumerate(
        sample_mutations(plan, count=mutants, seed=seed)
    ):
        mutant = mutate_plan(plan, mutation)
        report = verify_plan(mutant, raise_on_error=False)
        clean, failure = mutant_behaviour(
            mutant, total_elems=total_elems, spin=spin, seed=seed + i,
            report=report,
        )
        outcome.outcomes.append(
            MutantOutcome(
                mutation=mutation,
                description=mutation.describe(plan),
                verdict_ok=report.ok,
                ran_clean=clean,
                verifier_error=report.errors[0] if report.errors else "",
                runtime_failure=failure,
            )
        )
    return outcome


def fuzz_builder_mutations(
    algorithm: str,
    *,
    nnodes: int = 4,
    nchunks: int = 1,
    total_elems: int = 64,
    mutants: int = 40,
    seed: int = 0,
    spin: SpinConfig | None = None,
) -> MutationFuzzOutcome:
    """Build a named plan and run a mutation campaign against it.

    ``nchunks`` applies to the tree builders; ring and halving-doubling
    fix their own chunking by node count.
    """
    kwargs = (
        {"nchunks": nchunks}
        if algorithm in ("tree", "double_tree")
        else {}
    )
    plan = build_plan(algorithm, nnodes, float(total_elems * 8), **kwargs)
    return fuzz_mutations(
        plan,
        algorithm=algorithm,
        total_elems=total_elems,
        mutants=mutants,
        seed=seed,
        spin=spin,
    )
