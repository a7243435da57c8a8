"""Elastic membership: GPUs leave *and* join, training keeps going.

:class:`~repro.runtime.recovery.ResilientTrainer` handles the crash-only
story (PR 4): abort -> drain -> detect -> decide -> re-embed -> resume.
This module generalizes that state machine to a *membership event
stream* — the Cloud Collectives posture where any placement change
(revocation, crash, replacement arriving, scale-out) triggers
re-derivation of the logical topology instead of a job restart:

- **crash** — a member dies mid-collective: the abort protocol fires,
  the dead GPU is detected, and an extended
  :class:`~repro.runtime.recovery.RecoveryPolicy` chooses between
  continuing degraded on the survivors and restoring the last committed
  checkpoint generation (charging its *staleness* — iterations since
  the generation was captured — against the re-embed path's cost);
- **leave** — a member departs gracefully at an iteration boundary (a
  planned downscale): no abort, no lost work, just a re-embed;
- **join** — a GPU (re)joins at an iteration boundary: the member set
  grows N -> N+k and the double tree is re-embedded over the larger
  set — including back to the full machine after earlier losses.

Every re-embedding is gated through the plan IR before a single chunk
moves: the member set's double tree is lowered with
:func:`~repro.plan.builders.build_double_tree_plan`, compiled against
the compacted member topology (:func:`~repro.plan.passes.compile_plan`),
and statically checked by :func:`~repro.plan.verifier.verify_plan`
(exactly-once reduction, deadlock freedom, physical legality) —
"synthesize -> verify -> resume".

Data shards are redistributed deterministically at every membership
change (:func:`~repro.runtime.recovery.shard_assignments`: non-member
shards are adopted by ``shard % nranks``), so the whole run — across an
arbitrary event sequence — is bit-identical to
:func:`elastic_serial_reference`, a fault-free serial SGD replaying the
same per-segment tree reduction orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    AbortedError,
    CheckpointError,
    ConfigError,
    PlanVerificationError,
)
from repro.dnn.layers import NetworkModel
from repro.plan.builders import build_double_tree_plan
from repro.plan.passes import compile_plan
from repro.plan.verifier import verify_plan
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.checkpoint import Checkpointer, CheckpointState
from repro.runtime.faults import CRASH, FaultPlan, GpuFault
from repro.runtime.memory import ChunkLayout
from repro.runtime.recovery import (
    REEMBED,
    RESTART,
    InterpretedSegment,
    RecoveryDecision,
    RecoveryPolicy,
    adopted_gradient_fn,
    detect_dead_gpus,
    drain_aborted_run,
    interpreted_segment,
    segment_reduce_order,
    shard_assignments,
)
from repro.runtime.sync import SpinConfig
from repro.runtime.training import (
    FunctionalTrainer,
    GradientFn,
    serial_reference,
)
from repro.topology.base import PhysicalTopology
from repro.topology.logical import BinaryTree
from repro.topology.routing import Router
from repro.topology.tree_search import (
    DegradedEmbedding,
    detour_map_for,
    evaluate_pair,
    search_degraded_pair,
)

#: Membership event kinds.
CRASH_EVENT = "crash"
LEAVE_EVENT = "leave"
JOIN_EVENT = "join"

_EVENT_KINDS = (CRASH_EVENT, LEAVE_EVENT, JOIN_EVENT)

#: Deterministic ordering of events landing on the *same* iteration:
#: crashes interrupt the iteration (and are redone), so they apply
#: first; graceful leaves next; joins last — then by gpu id.
_KIND_ORDER = {CRASH_EVENT: 0, LEAVE_EVENT: 1, JOIN_EVENT: 2}


def _event_sort_key(event: "MembershipEvent") -> tuple[int, int, int]:
    return (event.at_iteration, _KIND_ORDER[event.kind], event.gpu)


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change in the event stream.

    Attributes:
        kind: ``"crash"`` (dies mid-collective, abort fires), ``"leave"``
            (graceful departure at an iteration boundary), or ``"join"``
            (arrival at an iteration boundary).
        gpu: the physical GPU id joining or leaving.
        at_iteration: global iteration the event lands on — a crash
            interrupts this iteration; leave/join take effect before it.
        after_chunk: for crashes, the chunk position the dying kernel
            reaches first (forwarded to the fault plan).
    """

    kind: str
    gpu: int
    at_iteration: int
    after_chunk: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ConfigError(
                f"unknown membership event kind {self.kind!r}; "
                f"expected one of {_EVENT_KINDS}"
            )
        if self.gpu < 0:
            raise ConfigError("event gpu must be non-negative")
        if self.at_iteration < 1:
            raise ConfigError(
                "membership events must land at iteration >= 1 (the "
                "initial membership covers iteration 0)"
            )
        if self.after_chunk < 0:
            raise ConfigError("after_chunk must be non-negative")


def parse_events(
    spec: str, *, iterations: int, seed: int = 0
) -> tuple[MembershipEvent, ...]:
    """Parse a CLI event spec like ``"crash:3,join:3"``.

    Each comma-separated token is ``kind:gpu`` or ``kind:gpu@iteration``.
    Tokens without an explicit iteration are placed deterministically
    from ``seed``: distinct iterations drawn without replacement from
    ``[1, iterations)``, assigned in token order after any explicit
    placements.

    Raises:
        ConfigError: on malformed tokens or when more implicit events
            are requested than free iterations exist.
    """
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("empty membership event spec")
    parsed: list[tuple[str, int, int | None]] = []
    for token in tokens:
        head, _, when = token.partition("@")
        kind, sep, gpu_s = head.partition(":")
        if not sep:
            raise ConfigError(
                f"bad event token {token!r}; expected kind:gpu[@iter]"
            )
        try:
            gpu = int(gpu_s)
            at = int(when) if when else None
        except ValueError as exc:
            raise ConfigError(f"bad event token {token!r}: {exc}") from exc
        parsed.append((kind, gpu, at))
    taken = {at for _, _, at in parsed if at is not None}
    free = [i for i in range(1, iterations) if i not in taken]
    implicit = sum(1 for _, _, at in parsed if at is None)
    if implicit > len(free):
        raise ConfigError(
            f"{implicit} implicit event(s) need distinct iterations but "
            f"only {len(free)} of [1, {iterations}) are free"
        )
    drawn: list[int] = []
    if implicit:
        rng = np.random.default_rng(seed)
        drawn = sorted(
            int(free[i])
            for i in rng.choice(len(free), size=implicit, replace=False)
        )
    events = []
    draw = iter(drawn)
    for kind, gpu, at in parsed:
        events.append(
            MembershipEvent(
                kind=kind,
                gpu=gpu,
                at_iteration=at if at is not None else next(draw),
            )
        )
    return tuple(sorted(events, key=_event_sort_key))


@dataclass(frozen=True)
class PlanCheck:
    """Result of gating one member set's collective through the plan IR.

    Attributes:
        members: the member set (sorted physical GPU ids).
        nops: ops in the compiled plan.
        verified: whether :func:`~repro.plan.verifier.verify_plan`
            passed (execution is refused otherwise, so reports only
            ever carry ``True`` here).
        notes: compile-pass annotations (route legalization, lanes).
    """

    members: tuple[int, ...]
    nops: int
    verified: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class MembershipRecord:
    """What the state machine did for one membership event.

    Attributes:
        event: the triggering event.
        members: member set *after* the event (sorted physical ids).
        dead_detected: physical GPUs the abort path detected dead
            (crashes only).
        decision: the policy's cost comparison (crashes only).
        restored_generation: checkpoint generation restored from, or -1
            when the run continued from live weights.
        resumed_from: global iteration training resumed at.
        plan_check: the plan-IR gate for the new member set.
        fault_stats: injector counters snapshotted when the crash abort
            drained (empty for leave/join or when nothing fired).
    """

    event: MembershipEvent
    members: tuple[int, ...]
    dead_detected: tuple[int, ...]
    decision: RecoveryDecision | None
    restored_generation: int
    resumed_from: int
    plan_check: PlanCheck
    fault_stats: dict = field(default_factory=dict)


@dataclass
class ElasticReport:
    """Everything one elastic training run did.

    Attributes:
        weights: final shared weights.
        weight_history: weights after every *surviving* completed
            iteration — entries invalidated by a checkpoint restore are
            truncated, so index ``i`` is always the weights after global
            iteration ``i``.
        events: the event stream, in iteration order.
        records: one :class:`MembershipRecord` per event.
        segments: ``(start_iteration, embedding, assignments)`` per
            ownership segment, exactly what
            :func:`elastic_serial_reference` replays.
        members: final member set.
        checkpoint_counters: the checkpointer's counters (empty when no
            checkpointer was configured).
        timeline: human-readable state-machine trace.
    """

    weights: np.ndarray
    weight_history: list[np.ndarray]
    events: tuple[MembershipEvent, ...]
    records: list[MembershipRecord]
    segments: list[tuple[int, DegradedEmbedding, dict[int, tuple[int, ...]]]]
    members: tuple[int, ...]
    checkpoint_counters: dict[str, int] = field(default_factory=dict)
    timeline: list[str] = field(default_factory=list)


class ElasticTrainer:
    """Data-parallel SGD under a stream of membership changes.

    Args:
        topo: the full physical topology (GPU ids ``0..P-1``); the
            member set at any time is a subset of its GPUs.
        network: layer table for the gradient queue.
        gradient_fn: per-physical-shard local gradient; shard adoption
            composes on top for non-member shards.
        trees: optional double-tree pair for the *full* member set (the
            searched pair is used when omitted).
        detour_map: detour routes matching ``trees``.
        chunks_per_tree: pipeline chunk count K per tree.
        learning_rate: SGD step on the summed gradient.
        policy: crash-time recovery policy (default: cost-based).
        spin: spin config for every runtime this trainer builds.
        detour_preference: preferred detour intermediates (physical ids).
        search_iterations / search_restarts / search_seed: hill-climb
            budget for each member-set re-embedding.
        checkpointer: optional durable checkpointer; enables the restore
            path and staleness-aware decisions.
        checkpoint_every: commit a generation every this many completed
            iterations (0 disables periodic checkpoints).
        initial_members: starting member set (default: every GPU).
    """

    def __init__(
        self,
        topo: PhysicalTopology,
        network: NetworkModel,
        gradient_fn: GradientFn,
        *,
        trees: tuple[BinaryTree, BinaryTree] | None = None,
        detour_map: dict[tuple[int, int], int] | None = None,
        chunks_per_tree: int = 4,
        learning_rate: float = 0.05,
        policy: RecoveryPolicy | None = None,
        spin: SpinConfig | None = None,
        detour_preference: tuple[int, ...] = (),
        search_iterations: int = 1200,
        search_restarts: int = 3,
        search_seed: int = 0,
        checkpointer: Checkpointer | None = None,
        checkpoint_every: int = 0,
        initial_members: tuple[int, ...] | None = None,
    ):
        if checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be non-negative")
        self.topo = topo
        self.network = network
        self.gradient_fn = gradient_fn
        self.chunks_per_tree = chunks_per_tree
        self.learning_rate = learning_rate
        self.policy = policy or RecoveryPolicy()
        self.spin = spin or SpinConfig()
        self.detour_preference = detour_preference
        self._search_kwargs = dict(
            iterations=search_iterations,
            restarts=search_restarts,
            seed=search_seed,
        )
        self.checkpointer = checkpointer
        self.checkpoint_every = checkpoint_every
        self.initial_members = tuple(
            sorted(initial_members or range(topo.nnodes))
        )
        for gpu in self.initial_members:
            if not 0 <= gpu < topo.nnodes:
                raise ConfigError(f"initial member {gpu} not in {topo.name!r}")
        self._embeddings: dict[frozenset[int], DegradedEmbedding] = {}
        self._plan_checks: dict[frozenset[int], PlanCheck] = {}
        if trees is not None and len(self.initial_members) == topo.nnodes:
            # Seed the memo with the caller's full-set pair so the
            # healthy schedule matches ResilientTrainer's exactly.
            router = Router(topo, detour_preference=detour_preference)
            identity = {g: g for g in range(topo.nnodes)}
            self._embeddings[frozenset(identity)] = DegradedEmbedding(
                survivors=tuple(range(topo.nnodes)),
                rank_of=dict(identity),
                gpu_of=dict(identity),
                topology=topo,
                trees=trees,
                detour_map=dict(
                    detour_map
                    if detour_map is not None
                    else detour_map_for(trees, topo, router)
                ),
                cost=evaluate_pair(trees[0], trees[1], topo, router),
            )

    @property
    def layout(self) -> ChunkLayout:
        """Chunk layout shared by every member set's runtime (depends on
        element count, tree count, and K — never on membership)."""
        return ChunkLayout.split(
            self.network.total_params,
            ntrees=2,
            chunks_per_tree=self.chunks_per_tree,
        )

    # -- membership -> embedding -> verified plan ------------------------

    def embedding_for(
        self, members: frozenset[int]
    ) -> DegradedEmbedding:
        """The (memoized) double-tree embedding for a member set."""
        if members not in self._embeddings:
            dead = [
                g for g in range(self.topo.nnodes) if g not in members
            ]
            self._embeddings[members] = search_degraded_pair(
                self.topo,
                dead,
                detour_preference=self.detour_preference,
                synth_fallback=True,
                **self._search_kwargs,
            )
        return self._embeddings[members]

    def plan_check_for(self, members: frozenset[int]) -> PlanCheck:
        """Gate a member set's collective through the plan IR (memoized).

        Lowers the member set's double tree to a plan, compiles it
        against the compacted member topology, and statically verifies
        it.  Training refuses to run a member set whose plan does not
        verify — "synthesize -> verify -> resume".

        Raises:
            PlanVerificationError: when the verifier rejects the plan.
        """
        if members in self._plan_checks:
            return self._plan_checks[members]
        embedding = self.embedding_for(members)
        if embedding.synthesized:
            # No feasible double tree: the embedding already carries a
            # synthesized plan; re-verify it against the member topology.
            report = verify_plan(
                embedding.plan,
                topo=embedding.topology,
                raise_on_error=False,
            )
            if not report.ok:
                raise PlanVerificationError(report.errors)
            check = PlanCheck(
                members=tuple(sorted(members)),
                nops=len(embedding.plan.ops),
                verified=True,
                notes=(
                    "synthesized fallback: no feasible double tree over "
                    f"the members; {embedding.plan_strategy} plan",
                ),
            )
            self._plan_checks[members] = check
            return check
        plan = build_double_tree_plan(
            embedding.topology.nnodes,
            float(self.network.total_params * 8),
            nchunks=self.chunks_per_tree,
            trees=embedding.trees,
            overlapped=True,
        )
        preference = tuple(
            embedding.rank_of[g]
            for g in self.detour_preference
            if g in embedding.rank_of
        )
        compiled, reports = compile_plan(
            plan,
            embedding.topology,
            router=Router(embedding.topology, detour_preference=preference),
        )
        report = verify_plan(
            compiled, topo=embedding.topology, raise_on_error=False
        )
        if not report.ok:
            raise PlanVerificationError(report.errors)
        check = PlanCheck(
            members=tuple(sorted(members)),
            nops=len(compiled.ops),
            verified=True,
            notes=tuple(reports.notes),
        )
        self._plan_checks[members] = check
        return check

    # -- runtime construction --------------------------------------------

    def _runtime(
        self,
        embedding: DegradedEmbedding,
        fault_plan: FaultPlan | None = None,
    ) -> TreeAllReduceRuntime:
        return TreeAllReduceRuntime(
            embedding.trees,
            total_elems=self.network.total_params,
            chunks_per_tree=self.chunks_per_tree,
            detour_map=embedding.detour_map,
            spin=self.spin,
            fault_plan=fault_plan,
        )

    def _segment(
        self,
        runtime: TreeAllReduceRuntime,
        gradient_fn: GradientFn,
        weights: np.ndarray,
        iterations: int,
    ) -> list[np.ndarray]:
        trainer = FunctionalTrainer(
            runtime,
            self.network,
            gradient_fn,
            learning_rate=self.learning_rate,
        )
        return trainer.train(weights, iterations=iterations).weight_history

    @staticmethod
    def _shifted(fn: GradientFn, offset: int) -> GradientFn:
        def shifted(weights: np.ndarray, gpu: int, iteration: int):
            return fn(weights, gpu, iteration + offset)

        return shifted

    def _member_fn(
        self, assignments: dict[int, tuple[int, ...]], offset: int
    ) -> GradientFn:
        return self._shifted(
            adopted_gradient_fn(self.gradient_fn, assignments), offset
        )

    # -- checkpointing ----------------------------------------------------

    def _maybe_save(
        self,
        weights: np.ndarray,
        iteration: int,
        members: frozenset[int],
        timeline: list[str],
    ) -> None:
        """Best-effort periodic save; failures never stop training."""
        if self.checkpointer is None:
            return
        try:
            generation = self.checkpointer.save(
                CheckpointState(
                    weights=weights,
                    iteration=iteration,
                    members=tuple(sorted(members)),
                )
            )
            timeline.append(
                f"checkpoint: generation {generation} committed at "
                f"iteration {iteration}"
            )
        except CheckpointError as exc:
            timeline.append(
                f"checkpoint: save at iteration {iteration} abandoned "
                f"({exc})"
            )

    def _run_span(
        self,
        weights: np.ndarray,
        history: list[np.ndarray],
        start: int,
        count: int,
        embedding: DegradedEmbedding,
        assignments: dict[int, tuple[int, ...]],
        members: frozenset[int],
        timeline: list[str],
    ) -> np.ndarray:
        """Run ``count`` iterations from global iteration ``start``,
        committing a checkpoint generation at every ``checkpoint_every``
        boundary it crosses."""
        done = 0
        while done < count:
            step = count - done
            at_ckpt = False
            if self.checkpointer is not None and self.checkpoint_every:
                here = start + done
                boundary = (
                    here // self.checkpoint_every + 1
                ) * self.checkpoint_every
                if boundary - here <= step:
                    step = boundary - here
                    at_ckpt = True
            member_fn = self._member_fn(assignments, start + done)
            if embedding.synthesized:
                span = interpreted_segment(
                    embedding,
                    self.network,
                    member_fn,
                    weights,
                    step,
                    learning_rate=self.learning_rate,
                    spin=self.spin,
                )
            else:
                span = self._segment(
                    self._runtime(embedding), member_fn, weights, step
                )
            history.extend(span)
            weights = span[-1].copy()
            done += step
            if at_ckpt:
                self._maybe_save(
                    weights, start + done, members, timeline
                )
        return weights

    # -- entry point ------------------------------------------------------

    def train(
        self,
        initial_weights: np.ndarray,
        *,
        iterations: int,
        events: tuple[MembershipEvent, ...] = (),
    ) -> ElasticReport:
        """Run ``iterations`` global steps through the event stream.

        Events are applied in ``at_iteration`` order; several events
        may land on the same iteration, applied in the deterministic
        order crash < leave < join (ties broken by gpu id) — a crash
        interrupts the iteration and is redone on the post-event member
        set, so it must resolve before boundary departures and
        arrivals.  A crash target must be a member; a join target must
        not be; membership never drops below 2.

        Raises:
            ConfigError: on invalid events.
            PlanVerificationError: when a re-embedded member set's plan
                fails static verification (execution is refused).
            AbortedError: only when a crash cannot be attributed to a
                GPU (re-raised with the original abort diagnostics).
        """
        if iterations < 1:
            raise ConfigError("need at least 1 iteration")
        stream = tuple(sorted(events, key=_event_sort_key))
        for event in stream:
            if event.at_iteration >= iterations:
                raise ConfigError(
                    f"event {event.kind}:{event.gpu} at iteration "
                    f"{event.at_iteration} is outside [1, {iterations})"
                )
            if not 0 <= event.gpu < self.topo.nnodes:
                raise ConfigError(
                    f"event gpu {event.gpu} not in {self.topo.name!r}"
                )

        timeline: list[str] = []
        records: list[MembershipRecord] = []
        history: list[np.ndarray] = []
        weights = np.asarray(initial_weights, dtype=np.float64).copy()
        members = frozenset(self.initial_members)
        embedding = self.embedding_for(members)
        check = self.plan_check_for(members)
        assignments = shard_assignments(embedding, self.topo.nnodes)
        segments: list[
            tuple[int, DegradedEmbedding, dict[int, tuple[int, ...]]]
        ] = [(0, embedding, assignments)]
        timeline.append(
            f"start: members {sorted(members)}, plan {check.nops} ops "
            "verified"
        )
        completed = 0

        for event in stream:
            # Quiet span up to the event's iteration.
            if event.at_iteration > completed:
                weights = self._run_span(
                    weights, history, completed,
                    event.at_iteration - completed,
                    embedding, assignments, members, timeline,
                )
                completed = event.at_iteration

            dead_detected: tuple[int, ...] = ()
            decision: RecoveryDecision | None = None
            restored_generation = -1
            fault_stats: dict = {}

            if event.kind == CRASH_EVENT:
                if event.gpu not in members:
                    raise ConfigError(
                        f"crash targets gpu {event.gpu}, not a member at "
                        f"iteration {event.at_iteration}"
                    )
                armed = FaultPlan(
                    gpu_faults=(
                        GpuFault(
                            gpu=embedding.rank_of[event.gpu],
                            kind=CRASH,
                            after_chunk=event.after_chunk,
                        ),
                    ),
                )
                crash_fn = self._member_fn(assignments, completed)
                if embedding.synthesized:
                    # The member set runs a synthesized fallback plan:
                    # arm the fault inside the interpreter; detection
                    # reads dense plan ranks off its phase board.
                    runtime = InterpretedSegment(
                        embedding,
                        self.network,
                        learning_rate=self.learning_rate,
                        spin=self.spin,
                        fault_plan=armed,
                    )

                    def run_crash(w):
                        return runtime.run(crash_fn, w, 1)

                else:
                    runtime = self._runtime(embedding, armed)

                    def run_crash(w):
                        return self._segment(runtime, crash_fn, w, 1)

                try:
                    span = run_crash(weights)
                    history.extend(span)
                    weights = span[-1].copy()
                    completed += 1
                    timeline.append(
                        f"crash: armed fault on gpu {event.gpu} never "
                        f"aborted; iteration {event.at_iteration} "
                        "completed normally"
                    )
                    records.append(MembershipRecord(
                        event=event,
                        members=tuple(sorted(members)),
                        dead_detected=(),
                        decision=None,
                        restored_generation=-1,
                        resumed_from=completed,
                        plan_check=self.plan_check_for(members),
                        fault_stats=dict(armed.stats.snapshot()),
                    ))
                    continue
                except AbortedError as abort:
                    timeline.append(f"abort: {abort.reason}")
                    fault_stats = drain_aborted_run(runtime)
                    timeline.append(
                        "drain: in-flight chunks discarded with the "
                        "aborted run"
                        + (f"; fault stats {fault_stats}" if fault_stats else "")
                    )
                    dead_ranks = detect_dead_gpus(runtime)
                    if not dead_ranks:
                        timeline.append(
                            "detect: no dead GPU identified; rethrowing"
                        )
                        raise
                    dead_detected = tuple(
                        sorted(embedding.gpu_of[r] for r in dead_ranks)
                    )
                    timeline.append(
                        f"detect: dead ranks {list(dead_ranks)} = "
                        f"physical GPUs {list(dead_detected)}"
                    )
                new_members = members - set(dead_detected)
                if len(new_members) < 2:
                    raise ConfigError(
                        "fewer than 2 members survive the crash"
                    )
                survivor_emb = self.embedding_for(new_members)
                ckpt: tuple[CheckpointState, int] | None = None
                if self.checkpointer is not None:
                    try:
                        ckpt = self.checkpointer.load_latest()
                    except CheckpointError as exc:
                        timeline.append(f"checkpoint: none loadable ({exc})")
                staleness = (
                    dict(
                        checkpoint_iteration=ckpt[0].iteration,
                        current_iteration=completed,
                    )
                    if ckpt is not None
                    else {}
                )
                decision = self.policy.decide(
                    nnodes_healthy=len(members),
                    nnodes_degraded=len(new_members),
                    nbytes=float(self.network.total_params * 8),
                    detours=survivor_emb.cost.detours,
                    conflicts=survivor_emb.cost.conflicts,
                    remaining_iterations=iterations - completed,
                    **staleness,
                )
                timeline.append(
                    f"decide: {decision.action} ({decision.reason})"
                )
                if decision.action == RESTART and ckpt is None:
                    timeline.append(
                        "restart: no committed generation to restore — "
                        "falling back to degraded continuation"
                    )
                if decision.action == RESTART and ckpt is not None:
                    state, restored_generation = ckpt
                    weights = np.asarray(
                        state.weights, dtype=np.float64
                    ).copy()
                    completed = state.iteration
                    del history[completed:]
                    timeline.append(
                        f"restore: generation {restored_generation} "
                        f"(iteration {completed}) reloaded; iterations "
                        f"{completed}..{event.at_iteration - 1} will be "
                        "redone on the survivors"
                    )
                members = new_members
            elif event.kind == LEAVE_EVENT:
                if event.gpu not in members:
                    raise ConfigError(
                        f"leave targets gpu {event.gpu}, not a member at "
                        f"iteration {event.at_iteration}"
                    )
                if len(members) - 1 < 2:
                    raise ConfigError(
                        "fewer than 2 members would remain after leave"
                    )
                members = members - {event.gpu}
                timeline.append(
                    f"leave: gpu {event.gpu} departed gracefully before "
                    f"iteration {event.at_iteration}"
                )
            else:  # join
                if event.gpu in members:
                    raise ConfigError(
                        f"join targets gpu {event.gpu}, already a member "
                        f"at iteration {event.at_iteration}"
                    )
                members = members | {event.gpu}
                timeline.append(
                    f"join: gpu {event.gpu} joined before iteration "
                    f"{event.at_iteration}"
                )

            embedding = self.embedding_for(members)
            check = self.plan_check_for(members)
            assignments = shard_assignments(embedding, self.topo.nnodes)
            segments = [s for s in segments if s[0] < completed]
            segments.append((completed, embedding, assignments))
            timeline.append(
                f"re-embed: {embedding.topology.nnodes} ranks, cost "
                f"{embedding.cost}, plan {check.nops} ops verified, "
                f"shards {assignments}"
            )
            records.append(MembershipRecord(
                event=event,
                members=tuple(sorted(members)),
                dead_detected=dead_detected,
                decision=decision,
                restored_generation=restored_generation,
                resumed_from=completed,
                plan_check=check,
                fault_stats=fault_stats,
            ))

        if completed < iterations:
            weights = self._run_span(
                weights, history, completed, iterations - completed,
                embedding, assignments, members, timeline,
            )
        timeline.append(
            f"done: {iterations} iterations on final members "
            f"{sorted(members)}"
        )
        return ElasticReport(
            weights=history[-1].copy() if history else weights,
            weight_history=history,
            events=stream,
            records=records,
            segments=segments,
            members=tuple(sorted(members)),
            checkpoint_counters=(
                dict(self.checkpointer.counters)
                if self.checkpointer is not None
                else {}
            ),
            timeline=timeline,
        )


def elastic_serial_reference(
    network: NetworkModel,
    gradient_fn: GradientFn,
    initial_weights: np.ndarray,
    *,
    segments: list[
        tuple[int, DegradedEmbedding, dict[int, tuple[int, ...]]]
    ],
    layout: ChunkLayout,
    iterations: int,
    learning_rate: float = 0.05,
) -> np.ndarray:
    """The fault-free serial SGD an elastic run must reproduce bit-exactly.

    Replays each ownership segment with its member set's reduction
    order — the hand-written tree order for healthy embeddings, the
    interpreted plan's replay order for synthesized fallbacks — plus
    shard adoption: the multi-segment generalization of
    :func:`~repro.runtime.recovery.recovery_serial_reference` to
    arbitrary membership-change sequences.  Floating-point addition is
    not associative, so matching the replayed orders (rather than
    ``np.sum``) is the accuracy-neutrality claim extended across every
    membership boundary.

    Raises:
        ConfigError: when the segments do not start at iteration 0 or
            are not strictly increasing.
    """
    if not segments or segments[0][0] != 0:
        raise ConfigError("segments must start at iteration 0")
    starts = [s[0] for s in segments]
    if starts != sorted(set(starts)):
        raise ConfigError("segment starts must be strictly increasing")
    weights = np.asarray(initial_weights, dtype=np.float64).copy()
    for i, (start, embedding, assignments) in enumerate(segments):
        end = segments[i + 1][0] if i + 1 < len(segments) else iterations
        if end <= start:
            continue
        fn = adopted_gradient_fn(gradient_fn, assignments)

        def shifted(w, gpu, iteration, _fn=fn, _off=start):
            return _fn(w, gpu, iteration + _off)

        weights = serial_reference(
            network,
            shifted,
            weights,
            nnodes=embedding.topology.nnodes,
            iterations=end - start,
            learning_rate=learning_rate,
            reduce_order=segment_reduce_order(
                embedding, layout, network.total_params
            ),
        )
    return weights
