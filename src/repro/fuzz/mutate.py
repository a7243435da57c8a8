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

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.plan.builders import build_plan
from repro.plan.interpreter import PlanInterpreter
from repro.plan.ir import Plan, PlanOp
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
        return f"{self.kind} {plan.op(self.op_id).name()}"


def candidate_mutations(plan: Plan) -> list[PlanMutation]:
    """Every applicable single mutation, in deterministic order.

    Only transfer ops are mutated: COPY markers are zero-work barriers
    whose removal cannot change the dataflow the dynamic oracle
    observes, so mutating them only measures verifier conservatism, not
    the soundness/completeness property this fuzzer is after.  Swaps
    are restricted to *adjacent* ops of the same thread block so the
    edit reorders exactly one program-order pair.
    """
    cands: list[PlanMutation] = []
    for op in plan.ops:
        if op.is_transfer:
            cands.append(PlanMutation(kind=DROP, op_id=op.op_id))
            cands.append(PlanMutation(kind=DUPLICATE, op_id=op.op_id))
    for a, b in zip(plan.ops, plan.ops[1:]):
        if (
            (a.rank, a.tb) == (b.rank, b.tb)
            and a.is_transfer
            and b.is_transfer
        ):
            cands.append(PlanMutation(kind=SWAP, op_id=a.op_id))
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


def _remap(deps: tuple[int, ...], idmap: dict[int, int]) -> tuple[int, ...]:
    return tuple(sorted({idmap[d] for d in deps}))


def mutate_plan(plan: Plan, mutation: PlanMutation) -> Plan:
    """Apply one mutation, renumbering ids densely.

    Every mutant is *structurally* well-formed (dense ordered ids,
    backward deps) so the verifier's verdict reflects the collective's
    semantics, not bookkeeping damage from the edit itself.

    Raises:
        ConfigError: when the mutation does not apply to this plan
            (op out of range, swap target not followed by a same-block
            transfer).
    """
    ops = list(plan.ops)
    if not 0 <= mutation.op_id < len(ops):
        raise ConfigError(
            f"mutation targets op {mutation.op_id}, plan has {len(ops)}"
        )
    target = ops[mutation.op_id]
    if not target.is_transfer:
        raise ConfigError(f"mutation target {target.name()} is not a transfer")

    if mutation.kind == DROP:
        idmap: dict[int, int] = {}
        kept: list[PlanOp] = []
        for op in ops:
            if op.op_id == mutation.op_id:
                continue
            idmap[op.op_id] = len(kept)
            kept.append(op)
        new_ops = []
        for op in kept:
            deps: list[int] = []
            for d in op.deps:
                if d == mutation.op_id:
                    # Splice: dependents inherit the dropped op's deps,
                    # as a real scheduler bug that loses an op would.
                    deps.extend(target.deps)
                else:
                    deps.append(d)
            new_ops.append(
                op.replace(op_id=idmap[op.op_id], deps=_remap(tuple(deps), idmap))
            )
        return plan.replace_ops(new_ops)

    if mutation.kind == DUPLICATE:
        p = mutation.op_id
        idmap = {
            old: (old if old <= p else old + 1) for old in range(len(ops))
        }
        new_ops = [op.replace(op_id=idmap[op.op_id]) for op in ops[: p + 1]]
        new_ops.append(target.replace(op_id=p + 1))
        for op in ops[p + 1:]:
            new_ops.append(
                op.replace(
                    op_id=idmap[op.op_id], deps=_remap(op.deps, idmap)
                )
            )
        return plan.replace_ops(new_ops)

    # SWAP: exchange with the globally-next op, same thread block.
    p = mutation.op_id
    if p + 1 >= len(ops):
        raise ConfigError(f"swap target {target.name()} has no successor")
    nxt = ops[p + 1]
    if (nxt.rank, nxt.tb) != (target.rank, target.tb) or not nxt.is_transfer:
        raise ConfigError(
            f"swap target {target.name()} is not followed by a same-block "
            "transfer"
        )
    idmap = {old: old for old in range(len(ops))}
    idmap[p], idmap[p + 1] = p + 1, p
    new_ops = list(ops[:p])
    # The moved-up op loses any dep on its former predecessor — the
    # reordering IS the mutation; a retained dep would be forward.
    new_ops.append(
        nxt.replace(
            op_id=p,
            deps=_remap(tuple(d for d in nxt.deps if d != p), idmap),
        )
    )
    new_ops.append(target.replace(op_id=p + 1))
    for op in ops[p + 2:]:
        new_ops.append(op.replace(deps=_remap(op.deps, idmap)))
    return plan.replace_ops(new_ops)


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
