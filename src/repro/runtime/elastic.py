"""One membership state machine: GPUs crash, leave and join; training goes on.

The paper's Observation #4 is that the logical tree can be re-embedded
on whatever physical links exist.  :class:`ElasticTrainer` turns that
into recovery: every placement change is a :class:`MembershipEvent`,
and each one re-derives the logical topology instead of restarting the
job (the Cloud Collectives posture; ForestColl re-plans the same way
for heterogeneous fabrics):

- **crash** — a member dies mid-collective:
  1. *abort* — the dying kernel trips the :class:`AbortCell`, the run
     raises :class:`~repro.errors.AbortedError`;
  2. *drain* — :func:`drain_aborted_run` joins the kernels the pool
     recorded as still alive; in-flight chunks die with the run;
  3. *detect* — :func:`detect_dead_gpus` reads the phase board, which
     every crash or stuck fault stamps before it fires;
  4. *decide* — :class:`RecoveryPolicy` compares finishing degraded on
     the survivors against a restart, charging a checkpoint's
     staleness to the restart arm.  What a RESTART means is the
     trainer's ``replace_on_restart`` setting: replacement GPUs bring
     the full machine back on the live weights, or the newest loadable
     checkpoint generation is restored and the survivors redo the lost
     iterations (degraded continuation when no generation loads);
- **leave** — a member departs at an iteration boundary: no abort, no
  lost work, just a re-embed;
- **join** — a GPU arrives at an iteration boundary, up to the full
  machine again.

After every event the member set is *re-embedded*
(:func:`~repro.topology.tree_search.search_degraded_pair`, memoized;
a synthesized plan where no double tree is feasible), and its
collective is gated through the plan IR before a chunk moves: lowered
with :func:`~repro.plan.builders.build_double_tree_plan`, compiled
against the compacted member topology and checked by
:func:`~repro.plan.verifier.verify_plan` — "synthesize -> verify ->
resume".  The verified plan is the one that runs: every span, quiet or
armed with a crash, runs it on one
:class:`~repro.plan.interpreter.PlanInterpreter` built on its
verification report, through the one SGD loop
(:func:`~repro.runtime.training.sgd_span`), so there is one engine, one
abort-message form and one happens-before graph per member set.

Data shards are redistributed deterministically at every change
(:func:`shard_assignments`: a non-member's shard is adopted by rank
``shard % nranks``), so the whole run, across any event sequence, is
bit-identical to :func:`elastic_serial_reference`, a fault-free serial
SGD replaying each segment's reduction order.
:class:`~repro.runtime.recovery.ResilientTrainer` is the crash-only
configuration of :class:`ElasticTrainer`.
"""

from __future__ import annotations

import time
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    AbortedError,
    CheckpointError,
    ConfigError,
    PlanVerificationError,
)
from repro.dnn.layers import NetworkModel
from repro.models.costmodel import (
    CostParams,
    degraded_overlapped_tree_time,
    restart_from_checkpoint_time,
)
from repro.plan.builders import build_double_tree_plan
from repro.plan.interpreter import PlanInterpreter, plan_reduce_order
from repro.plan.ir import Plan
from repro.plan.passes import compile_plan
from repro.plan.verifier import VerifyReport, verify_plan
from repro.runtime.checkpoint import Checkpointer, CheckpointState
from repro.runtime.faults import CRASH, FaultPlan, GpuFault
from repro.runtime.memory import ChunkLayout
from repro.runtime.sync import SpinConfig
from repro.runtime.training import (
    GradientFn,
    serial_reference,
    sgd_span,
    tree_reduce_order,
)
from repro.topology.base import PhysicalTopology
from repro.topology.dgx1 import NVLINK_ALPHA, NVLINK_BANDWIDTH
from repro.topology.logical import BinaryTree
from repro.topology.routing import Router
from repro.topology.tree_search import (
    DegradedEmbedding,
    detour_map_for,
    evaluate_pair,
    search_degraded_pair,
)

# -- crash recovery: detect, drain, decide, adopt ------------------------

#: Recovery actions / policy modes.
REEMBED = "reembed"
RESTART = "restart"
COST_BASED = "cost"

_POLICY_MODES = (COST_BASED, REEMBED, RESTART)

#: Seconds :func:`drain_aborted_run` waits, in total, for the kernels
#: still alive when the pool raised.
DRAIN_GRACE = 0.05


def detect_dead_gpus(runtime) -> tuple[int, ...]:
    """Ranks that died in ``runtime``'s most recent aborted run.

    ``runtime`` is the aborted run's
    :class:`~repro.runtime.executor.Executor` (the span's
    :class:`~repro.plan.interpreter.PlanInterpreter`).  The returned ids
    are dense plan ranks, which the caller maps back to physical GPUs
    via the embedding's ``gpu_of``.

    The phase board is the one source: every executor run sets one, and
    a crash or stuck fault stamps its rank's last phase before it fires.
    Those terminal stamps are sticky, so a faulty rank's still-running
    sibling kernels on other trees cannot erase them.
    """
    phases = map(runtime.phase_board.get, range(runtime.nnodes))
    return tuple(
        gpu for gpu, phase in enumerate(phases)
        if "crashed" in phase or "stuck" in phase
    )


def drain_aborted_run(runtime) -> dict[str, int]:
    """Step 2 of the recovery state machine: drain the aborted cluster.

    By the time :class:`~repro.errors.AbortedError` propagates, the
    kernel pool has already granted its abort grace, so surviving kernel
    threads have observed the flag; any in-flight chunk exists only in
    the aborted run's wires and gradient buffers, which die with the
    runtime object.  This helper asserts the abort actually fired, joins
    the kernel threads the pool recorded as still alive when it raised
    (:data:`DRAIN_GRACE` seconds at most in total; none left means no
    wait), and returns the final fault-stats snapshot for the recovery
    timeline.

    Raises:
        ConfigError: when called on a runtime that never aborted.
    """
    cell = runtime.abort_cell
    if cell is None or not cell.is_set():
        raise ConfigError("drain requested but the cluster never aborted")
    deadline = time.monotonic() + DRAIN_GRACE
    for thread in cell.stragglers():
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    if runtime.fault_plan is not None:
        return runtime.fault_plan.stats.snapshot()
    return {}


@dataclass(frozen=True)
class RecoveryDecision:
    """Outcome of the degraded-vs-restart cost comparison.

    Attributes:
        action: ``"reembed"`` or ``"restart"``.
        degraded_cost: modeled seconds to finish on the survivors.
        restart_cost: modeled seconds to finish after a healthy restart.
        reason: one-line human-readable justification.
    """

    action: str
    degraded_cost: float
    restart_cost: float
    reason: str


@dataclass(frozen=True)
class RecoveryPolicy:
    """Picks between degraded continuation and restart-from-checkpoint.

    Attributes:
        mode: ``"cost"`` (compare modeled costs), ``"reembed"``, or
            ``"restart"`` (forced, for drills and tests).
        params: alpha/beta of the collective's links (defaults to one
            NVLink 2.0 brick, matching the DGX-1 model).
        restart_overhead: seconds to bring up a replacement GPU, reload
            weights, and rebuild the communicator.
        compute_time: per-iteration compute seconds (added to both
            sides' per-iteration cost).
    """

    mode: str = COST_BASED
    params: CostParams = field(
        default_factory=lambda: CostParams(
            alpha=NVLINK_ALPHA, beta=1.0 / NVLINK_BANDWIDTH
        )
    )
    restart_overhead: float = 30.0
    compute_time: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in _POLICY_MODES:
            raise ConfigError(
                f"unknown recovery policy mode {self.mode!r}; "
                f"expected one of {_POLICY_MODES}"
            )
        if self.restart_overhead < 0 or self.compute_time < 0:
            raise ConfigError("policy overheads must be non-negative")

    def decide(
        self,
        *,
        nnodes_healthy: int,
        nnodes_degraded: int,
        nbytes: float,
        detours: int,
        conflicts: int = 0,
        remaining_iterations: int,
        lost_iterations: int = 0,
        checkpoint_iteration: int | None = None,
        current_iteration: int | None = None,
    ) -> RecoveryDecision:
        """Compare time-to-completion from the crash point.

        ``remaining_iterations`` includes the crashed iteration (both
        paths redo it); ``lost_iterations`` is *extra* redo work the
        restart path owes because its checkpoint is older than the
        re-embedding path's resume point.  When the caller knows the
        actual checkpoint generation, pass ``checkpoint_iteration`` (the
        iteration the last committed generation captured) together with
        ``current_iteration`` (the iteration the crash interrupted) and
        the staleness ``current - checkpoint`` is charged on top of
        ``lost_iterations`` — before this, the policy silently assumed
        the implied checkpoint was never stale.
        """
        if remaining_iterations < 0 or lost_iterations < 0:
            raise ConfigError("iteration counts must be non-negative")
        if (checkpoint_iteration is None) != (current_iteration is None):
            raise ConfigError(
                "checkpoint_iteration and current_iteration must be "
                "given together"
            )
        if checkpoint_iteration is not None:
            if checkpoint_iteration < 0 or current_iteration < 0:
                raise ConfigError("iteration counts must be non-negative")
            lost_iterations += max(
                0, current_iteration - checkpoint_iteration
            )
        per_degraded = (
            degraded_overlapped_tree_time(
                nnodes_degraded, nbytes, self.params,
                detours=detours, conflicts=conflicts,
            )
            + self.compute_time
        )
        degraded_cost = remaining_iterations * per_degraded
        restart_cost = restart_from_checkpoint_time(
            nnodes_healthy,
            nbytes,
            self.params,
            lost_iterations=lost_iterations + remaining_iterations,
            compute_time=self.compute_time,
            restart_overhead=self.restart_overhead,
        )
        if self.mode == REEMBED:
            action, reason = REEMBED, "policy forces re-embedding"
        elif self.mode == RESTART:
            action, reason = RESTART, "policy forces restart"
        elif degraded_cost <= restart_cost:
            action = REEMBED
            reason = (
                f"degraded finish {degraded_cost:.3g}s <= restart "
                f"{restart_cost:.3g}s"
            )
        else:
            action = RESTART
            reason = (
                f"restart {restart_cost:.3g}s < degraded finish "
                f"{degraded_cost:.3g}s"
            )
        return RecoveryDecision(
            action=action,
            degraded_cost=degraded_cost,
            restart_cost=restart_cost,
            reason=reason,
        )


def shard_assignments(
    embedding: DegradedEmbedding, nnodes_healthy: int
) -> dict[int, tuple[int, ...]]:
    """Which physical data shards each survivor rank computes for.

    Every rank keeps its own shard; each dead GPU's orphaned shard is
    *adopted* by the survivor at rank ``dead % nsurvivors`` — a fixed,
    deterministic rule so the distributed run and the serial reference
    agree on the exact order of the adopting sum.
    """
    nranks = len(embedding.gpu_of)
    assignments = {
        rank: [gpu] for rank, gpu in sorted(embedding.gpu_of.items())
    }
    dead = [
        g for g in range(nnodes_healthy) if g not in embedding.rank_of
    ]
    for gpu in dead:
        assignments[gpu % nranks].append(gpu)
    return {rank: tuple(shards) for rank, shards in assignments.items()}


def adopted_gradient_fn(
    base: GradientFn, assignments: dict[int, tuple[int, ...]]
) -> GradientFn:
    """Per-rank gradient over adopted shards, summed in assignment order.

    The sum is formed in float64 and in the exact tuple order of the
    assignment, so :func:`elastic_serial_reference` can replay it
    bit-for-bit.
    """

    def fn(weights: np.ndarray, rank: int, iteration: int) -> np.ndarray:
        shards = assignments[rank]
        acc = np.asarray(
            base(weights, shards[0], iteration), dtype=np.float64
        ).copy()
        for shard in shards[1:]:
            acc += np.asarray(
                base(weights, shard, iteration), dtype=np.float64
            )
        return acc

    return fn


def segment_reduce_order(
    embedding: DegradedEmbedding, layout, total_elems: int
):
    """The bit-exact serial reduction order for one recovery segment.

    Tree embeddings replay the embedding's tree order
    (:func:`~repro.runtime.training.tree_reduce_order`), an oracle
    independent of the compiled plan the segment interprets, so a
    bit-exact match proves that plan sums in tree order.  Synthesized
    segments replay the plan's combined-graph execution order
    (:func:`repro.plan.interpreter.plan_reduce_order`).  This is what
    lets one serial reference cross plan-path boundaries.
    """
    if embedding.synthesized:
        return plan_reduce_order(embedding.plan, total_elems=total_elems)
    return tree_reduce_order(embedding.trees, layout)


# -- the membership state machine ----------------------------------------

#: Membership event kinds.
CRASH_EVENT = "crash"
LEAVE_EVENT = "leave"
JOIN_EVENT = "join"

_EVENT_KINDS = (CRASH_EVENT, LEAVE_EVENT, JOIN_EVENT)

#: Deterministic ordering of events landing on the *same* iteration:
#: crashes interrupt the iteration (and are redone), so they apply
#: first; graceful leaves next; joins last.
_KIND_ORDER = {CRASH_EVENT: 0, LEAVE_EVENT: 1, JOIN_EVENT: 2}

#: ``(start_iteration, embedding, assignments)``: one ownership segment.
Segment = tuple[int, DegradedEmbedding, dict[int, tuple[int, ...]]]


def _event_sort_key(event: "MembershipEvent") -> tuple[int, int]:
    return (event.at_iteration, _KIND_ORDER[event.kind])


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change in the event stream.

    Attributes:
        kind: ``"crash"`` (dies mid-collective, abort fires), ``"leave"``
            (graceful departure at an iteration boundary), or ``"join"``
            (arrival at an iteration boundary).
        gpu: the physical GPU id joining or leaving.
        at_iteration: global iteration the event lands on — a crash
            interrupts this iteration (iteration 0 included); leave and
            join take effect before it, from iteration 1 on.
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
        if self.at_iteration < (0 if self.kind == CRASH_EVENT else 1):
            raise ConfigError(
                "leave and join events must land at iteration >= 1 (the "
                "initial membership covers iteration 0), crashes at >= 0"
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
    placements.  The result is in application order, ties of one kind
    on one iteration broken by gpu id.

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
    return tuple(
        sorted(events, key=lambda e: (*_event_sort_key(e), e.gpu))
    )


def _crash_events(
    *crashes: tuple[FaultPlan | None, int],
) -> tuple[MembershipEvent, ...]:
    """The crash events that crash-only fault plans stand for: one per
    ``(plan, at_iteration)`` pair whose plan is not None.

    Raises:
        ConfigError: unless each plan arms exactly one ``CRASH`` GPU
            fault and nothing else.
    """
    events = []
    for plan, at_iteration in crashes:
        if plan is None:
            continue
        faults = plan.gpu_faults
        if (
            plan.link_faults
            or plan.storage_faults
            or len(faults) != 1
            or faults[0].kind != CRASH
        ):
            raise ConfigError(
                "ResilientTrainer takes fault plans with exactly one "
                "GpuFault(gpu, CRASH, after_chunk); use ElasticTrainer "
                "events or the runtimes for other faults"
            )
        events.append(
            MembershipEvent(
                CRASH_EVENT, faults[0].gpu, at_iteration, faults[0].after_chunk
            )
        )
    return tuple(events)


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
            (crashes that aborted only).
        decision: the policy's cost comparison (crashes only).
        restored_generation: checkpoint generation restored from, or -1
            when the run continued from live weights.
        resumed_from: global iteration training resumed at.
        plan_check: the plan-IR gate for the new member set.
        fault_stats: injector counters snapshotted when the crash abort
            drained (empty for leave/join or when nothing fired).
        abort_reason: the abort cell's reason (empty unless aborted).
        embedding: the new member set's embedding.
        assignments: rank -> adopted physical shards for ``embedding``.
    """

    event: MembershipEvent
    members: tuple[int, ...]
    dead_detected: tuple[int, ...]
    decision: RecoveryDecision | None
    restored_generation: int
    resumed_from: int
    plan_check: PlanCheck
    fault_stats: dict = field(default_factory=dict)
    abort_reason: str = ""
    embedding: DegradedEmbedding | None = None
    assignments: dict[int, tuple[int, ...]] | None = None


def _crash_view(index: int, attr: str, empty=None, *, reembed=False):
    """Read-only view of ``attr`` on a report's ``index``-th crash that
    aborted; ``empty`` when there is none.  ``reembed`` views are also
    ``empty`` when the crash was answered by replacement GPUs, which
    keep the member set (the dead GPUs are members again)."""

    def get(report: "ElasticReport"):
        crashes = [r for r in report.records if r.dead_detected]
        if len(crashes) <= index:
            return copy(empty)
        record = crashes[index]
        if reembed and set(record.dead_detected) & set(record.members):
            return copy(empty)
        return getattr(record, attr)

    return property(get)


@dataclass
class ElasticReport:
    """Everything one elastic training run did.

    Attributes:
        weights: final shared weights (the engine's own array).
        weight_checksums: CRC32 (``memory.payload_checksum``) of the
            weights after every *surviving* completed iteration —
            entries invalidated by a checkpoint restore are truncated,
            so index ``i`` always checksums the weights after global
            iteration ``i``.  One int per iteration: the report holds
            no weight vector but the final one.
        events: the event stream, in application order.
        records: one :class:`MembershipRecord` per event.
        segments: ``(start_iteration, embedding, assignments)`` per
            ownership segment, exactly what
            :func:`elastic_serial_reference` replays.
        members: final member set (the current one while
            :meth:`ElasticTrainer.train` runs, which keeps its state in
            the report it returns).
        initial_segment: the segment training started on (``segments``
            drops it when a crash at iteration 0 replaces it).
        checkpoint_counters: the checkpointer's counters (empty when no
            checkpointer was configured).
        timeline: human-readable state-machine trace.

    The crash-recovery views below read the first crash that aborted
    and its cascade (the second); they are the report surface of
    :class:`~repro.runtime.recovery.ResilientTrainer`.
    """

    weights: np.ndarray
    weight_checksums: list[int]
    events: tuple[MembershipEvent, ...]
    records: list[MembershipRecord]
    segments: list[Segment]
    members: tuple[int, ...]
    initial_segment: Segment
    checkpoint_counters: dict[str, int] = field(default_factory=dict)
    timeline: list[str] = field(default_factory=list)

    abort_reason = _crash_view(0, "abort_reason", "")
    dead_gpus = _crash_view(0, "dead_detected", ())
    decision = _crash_view(0, "decision")
    embedding = _crash_view(0, "embedding", reembed=True)
    assignments = _crash_view(0, "assignments", reembed=True)
    resumed_from_iteration = _crash_view(0, "resumed_from", -1)
    fault_stats = _crash_view(0, "fault_stats", {})
    cascade_dead_gpus = _crash_view(1, "dead_detected", ())
    cascade_decision = _crash_view(1, "decision")
    cascade_embedding = _crash_view(1, "embedding", reembed=True)
    cascade_assignments = _crash_view(1, "assignments", reembed=True)
    cascade_resumed_from_iteration = _crash_view(1, "resumed_from", -1)
    cascade_fault_stats = _crash_view(1, "fault_stats", {})

    @property
    def aborted(self) -> bool:
        """Whether a crash aborted the cluster and recovery engaged."""
        return any(r.dead_detected for r in self.records)

    @property
    def fault_at_iteration(self) -> int:
        """Iteration of the first crash event (-1 without one)."""
        return next(
            (e.at_iteration for e in self.events if e.kind == CRASH_EVENT),
            -1,
        )

    @property
    def initial_dead(self) -> tuple[int, ...]:
        """Physical GPUs that were not members when training started."""
        _, embedding, assignments = self.initial_segment
        shards = {s for owned in assignments.values() for s in owned}
        return tuple(sorted(shards - set(embedding.survivors)))


class ElasticTrainer:
    """Data-parallel SGD under a stream of membership changes.

    Each member set's collective is the plan :meth:`plan_check_for`
    verified, and every span runs that plan on one
    :class:`~repro.plan.interpreter.PlanInterpreter` through
    :func:`~repro.runtime.training.sgd_span`.  :meth:`train` alternates
    quiet spans with :meth:`_transition`, which applies one event.

    Args:
        topo: the full physical topology (GPU ids ``0..P-1``); the
            member set at any time is a subset of its GPUs.
        network: layer table (sets the gradient length).
        gradient_fn: per-physical-shard local gradient; shard adoption
            composes on top for non-member shards.
        trees: optional double-tree pair for the *full* member set (the
            searched pair is used when omitted).
        detour_map: detour routes matching ``trees``, recorded on the
            full member set's embedding; the compiled plan routes its
            detours through ``detour_preference``.
        chunks_per_tree: pipeline chunk count K per tree.
        learning_rate: SGD step on the summed gradient.
        policy: crash-time recovery policy (default: cost-based).
        spin: spin config for every interpreter this trainer builds.
        detour_preference: preferred detour intermediates (physical ids).
        search_iterations / search_restarts / search_seed: hill-climb
            budget for each member-set re-embedding.
        checkpointer: optional durable checkpointer; enables the restore
            path and staleness-aware decisions.
        checkpoint_every: commit a generation every this many completed
            iterations (0 disables periodic checkpoints).
        initial_members: starting member set (default: every GPU).
        replace_on_restart: what a RESTART decision does.  True:
            replacement GPUs bring the full machine back and training
            continues from the live weights.  False (default): restore
            the newest loadable checkpoint generation and redo the lost
            iterations on the survivors, or continue degraded when no
            generation loads.
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
        replace_on_restart: bool = False,
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
        self.replace_on_restart = replace_on_restart
        self.initial_members = tuple(
            sorted(initial_members or range(topo.nnodes))
        )
        for gpu in self.initial_members:
            if not 0 <= gpu < topo.nnodes:
                raise ConfigError(f"initial member {gpu} not in {topo.name!r}")
        self._embeddings: dict[frozenset[int], DegradedEmbedding] = {}
        #: member set -> (its plan check, the plan it verified, the report).
        self._verified: dict[
            frozenset[int], tuple[PlanCheck, Plan, VerifyReport]
        ] = {}
        if trees is not None:
            # Seed the memo with the caller's pair, so the full member
            # set runs exactly the schedule the caller chose.
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
        """Chunk layout shared by every member set's plan (depends on
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
        it (a synthesized embedding's own plan is re-verified instead).
        The verified plan and its report are memoized next to the
        check: every span on this member set runs that plan on that
        report.  Training refuses to run a member set whose plan does
        not verify — "synthesize -> verify -> resume".

        Raises:
            PlanVerificationError: when the verifier rejects the plan.
        """
        if members not in self._verified:
            embedding = self.embedding_for(members)
            if embedding.synthesized:
                # No feasible double tree: the embedding already carries
                # a synthesized plan; re-verify it against the members.
                plan = embedding.plan
                notes: tuple[str, ...] = (
                    "synthesized fallback: no feasible double tree over "
                    f"the members; {embedding.plan_strategy} plan",
                )
            else:
                preference = tuple(
                    embedding.rank_of[g]
                    for g in self.detour_preference
                    if g in embedding.rank_of
                )
                plan, reports = compile_plan(
                    build_double_tree_plan(
                        embedding.topology.nnodes,
                        float(self.network.total_params * 8),
                        nchunks=self.chunks_per_tree,
                        trees=embedding.trees,
                        overlapped=True,
                    ),
                    embedding.topology,
                    router=Router(
                        embedding.topology, detour_preference=preference
                    ),
                )
                notes = tuple(reports.notes)
            report = verify_plan(
                plan, topo=embedding.topology, raise_on_error=False
            )
            if not report.ok:
                raise PlanVerificationError(report.errors)
            check = PlanCheck(
                members=tuple(sorted(members)),
                nops=len(plan.ops),
                verified=True,
                notes=notes,
            )
            self._verified[members] = (check, plan, report)
        return self._verified[members][0]

    # -- execution ---------------------------------------------------------

    def _interpreter(
        self,
        members: frozenset[int],
        fault_plan: FaultPlan | None = None,
    ) -> PlanInterpreter:
        """The engine for one span on ``members``: an interpreter on the
        plan :meth:`plan_check_for` verified for them, built on its
        report.  Its last run's abort surface (``abort_cell``,
        ``phase_board``) is what :func:`drain_aborted_run` and
        :func:`detect_dead_gpus` read; ``fault_plan`` is in dense plan
        ranks."""
        self.plan_check_for(members)
        _check, plan, report = self._verified[members]
        return PlanInterpreter(
            plan,
            total_elems=self.network.total_params,
            spin=self.spin,
            fault_plan=fault_plan,
            report=report,
        )

    def _sgd(
        self,
        run: ElasticReport,
        interpreter: PlanInterpreter,
        iterations: range,
    ) -> None:
        """Train ``run`` over ``iterations`` on ``interpreter``, each rank
        computing for the shards the current segment assigns it."""
        lr = self.learning_rate

        def step(grads: list[np.ndarray], weights: np.ndarray):
            outputs = interpreter.run(grads, in_place=True).outputs
            # Each rank steps its own replica in its reduced buffer:
            # (-lr) * g is exactly -(lr * g), so w + that is w - lr * g
            # bit for bit, with no array allocated.
            for out in outputs:
                np.multiply(out, -lr, out=out)
                out += weights
            return outputs

        run.weights = sgd_span(
            step,
            adopted_gradient_fn(self.gradient_fn, run.segments[-1][2]),
            run.weights,
            iterations,
            nnodes=interpreter.nnodes,
            checksums=run.weight_checksums,
        )

    # -- checkpointing ----------------------------------------------------

    def _maybe_save(self, run: ElasticReport) -> None:
        """Best-effort periodic save; failures never stop training."""
        iteration = len(run.weight_checksums)
        try:
            generation = self.checkpointer.save(
                CheckpointState(
                    weights=run.weights,
                    iteration=iteration,
                    members=run.members,
                )
            )
            run.timeline.append(
                f"checkpoint: generation {generation} committed at "
                f"iteration {iteration}"
            )
        except CheckpointError as exc:
            run.timeline.append(
                f"checkpoint: save at iteration {iteration} abandoned "
                f"({exc})"
            )

    # -- the span loop and the transition ----------------------------------

    def _run_span(self, run: ElasticReport, until: int) -> None:
        """Run the quiet iterations from ``run``'s next one up to
        ``until`` on one interpreter, committing a checkpoint generation
        at every ``checkpoint_every`` boundary the span crosses."""
        here = len(run.weight_checksums)
        if here >= until:
            return
        interpreter = self._interpreter(frozenset(run.members))
        every = self.checkpoint_every if self.checkpointer is not None else 0
        while here < until:
            stop = min(until, (here // every + 1) * every) if every else until
            self._sgd(run, interpreter, range(here, stop))
            here = stop
            if every and here % every == 0:
                self._maybe_save(run)

    def _crash(
        self, run: ElasticReport, event: MembershipEvent, iterations: int
    ) -> tuple[
        frozenset[int], tuple[int, ...], RecoveryDecision | None, int, dict,
        str,
    ]:
        """Run the crash's iteration with the fault armed.

        When the cluster aborts: drain, detect, decide, and on RESTART
        bring replacement GPUs in or restore the newest loadable
        checkpoint generation (which rewinds ``run``).  When the armed
        fault never fires, the iteration completes.  Returns the member
        set after the crash, the physical GPUs detected dead (empty when
        nothing aborted), the decision, the restored generation (-1 for
        none), the fault stats and the abort reason.
        """
        members = frozenset(run.members)
        timeline = run.timeline
        if event.gpu not in members:
            raise ConfigError(
                f"crash targets gpu {event.gpu}, not a member at "
                f"iteration {event.at_iteration}"
            )
        _start, embedding, _assignments = run.segments[-1]
        # Armed and detected in dense plan ranks; gpu_of maps detections
        # back to GPUs.
        armed = FaultPlan(
            gpu_faults=(
                GpuFault(
                    gpu=embedding.rank_of[event.gpu],
                    kind=CRASH,
                    after_chunk=event.after_chunk,
                ),
            ),
        )
        interpreter = self._interpreter(members, armed)
        completed = len(run.weight_checksums)
        try:
            self._sgd(run, interpreter, range(completed, completed + 1))
        except AbortedError as abort:
            reason = abort.reason
            timeline.append(
                f"{'cascade abort' if run.aborted else 'abort'}: {reason}"
            )
            fault_stats = drain_aborted_run(interpreter)
            timeline.append(
                "drain: in-flight chunks discarded with the aborted run"
                + (f"; fault stats {fault_stats}" if fault_stats else "")
            )
            dead_ranks = detect_dead_gpus(interpreter)
            if not dead_ranks:
                timeline.append("detect: no dead GPU identified; rethrowing")
                raise
            dead = tuple(sorted(embedding.gpu_of[r] for r in dead_ranks))
            timeline.append(
                f"detect: dead ranks {list(dead_ranks)} = physical GPUs "
                f"{list(dead)}"
            )
        else:
            timeline.append(
                f"crash: armed fault on gpu {event.gpu} never aborted; "
                f"iteration {event.at_iteration} completed normally"
            )
            return members, (), None, -1, dict(armed.stats.snapshot()), ""
        survivors = members - set(dead)
        if len(survivors) < 2:
            raise ConfigError("fewer than 2 members survive the crash")
        survivor_emb = self.embedding_for(survivors)
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
        # Either restart arm brings back a healthy machine's collective,
        # so the restart cost is the full topology's.
        decision = self.policy.decide(
            nnodes_healthy=self.topo.nnodes,
            nnodes_degraded=len(survivors),
            nbytes=float(self.network.total_params * 8),
            detours=survivor_emb.cost.detours,
            conflicts=survivor_emb.cost.conflicts,
            remaining_iterations=iterations - completed,
            **staleness,
        )
        timeline.append(f"decide: {decision.action} ({decision.reason})")
        generation = -1
        if decision.action == RESTART and self.replace_on_restart:
            survivors = frozenset(range(self.topo.nnodes))
            timeline.append(
                "restart: replacement GPUs join, healthy "
                f"{self.topo.nnodes}-GPU schedule"
            )
        elif decision.action == RESTART and ckpt is None:
            timeline.append(
                "restart: no committed generation to restore — "
                "falling back to degraded continuation"
            )
        elif decision.action == RESTART:
            state, generation = ckpt
            run.weights = np.asarray(state.weights, dtype=np.float64).copy()
            completed = state.iteration
            del run.weight_checksums[completed:]
            timeline.append(
                f"restore: generation {generation} (iteration {completed}) "
                "reloaded; "
                + (
                    f"iterations {completed}..{event.at_iteration - 1} will "
                    "be redone on the survivors"
                    if completed < event.at_iteration
                    else "no completed iteration was lost"
                )
            )
        return survivors, dead, decision, generation, fault_stats, reason

    def _transition(
        self, run: ElasticReport, event: MembershipEvent, iterations: int
    ) -> None:
        """Apply one membership event to ``run`` and record it.

        A crash goes through :meth:`_crash`; a leave or join changes the
        member set at the iteration boundary.  Every changed member set
        is re-embedded, its plan verified and its shards reassigned,
        starting a new ownership segment; the event's
        :class:`MembershipRecord` is appended either way.
        """
        members = frozenset(run.members)
        cascade = run.aborted
        dead: tuple[int, ...] = ()
        decision: RecoveryDecision | None = None
        generation, fault_stats, abort_reason = -1, {}, ""
        if event.kind == CRASH_EVENT:
            (
                members, dead, decision, generation, fault_stats, abort_reason,
            ) = self._crash(run, event, iterations)
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
            run.timeline.append(
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
            run.timeline.append(
                f"join: gpu {event.gpu} joined before iteration "
                f"{event.at_iteration}"
            )
        completed = len(run.weight_checksums)
        check = self.plan_check_for(members)
        # A crash that never aborted keeps the member set and segment.
        if dead or event.kind != CRASH_EVENT:
            embedding = self.embedding_for(members)
            assignments = shard_assignments(embedding, self.topo.nnodes)
            run.segments = [s for s in run.segments if s[0] < completed]
            run.segments.append((completed, embedding, assignments))
            run.timeline.append(
                f"re-embed: {embedding.topology.nnodes} ranks, cost "
                f"{embedding.cost}, plan {check.nops} ops verified, "
                f"shards {assignments}"
            )
            if dead:
                run.timeline.append(
                    f"resume: iterations {completed}..{event.at_iteration} "
                    f"redone on {embedding.topology.nnodes} ranks"
                    + (" after cascading crash" if cascade else "")
                )
        run.members = tuple(sorted(members))
        _start, embedding, assignments = run.segments[-1]
        run.records.append(MembershipRecord(
            event=event,
            members=run.members,
            dead_detected=dead,
            decision=decision,
            restored_generation=generation,
            resumed_from=completed,
            plan_check=check,
            fault_stats=fault_stats,
            abort_reason=abort_reason,
            embedding=embedding,
            assignments=assignments,
        ))

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
        order crash < leave < join, events of one kind in the order
        given — a crash interrupts the iteration and is redone on the
        post-event member set, so it must resolve before boundary
        departures and arrivals.  A crash target must be a member; a
        join target must not be; membership never drops below 2.

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
                    f"{event.at_iteration} is outside [0, {iterations})"
                )
            if not 0 <= event.gpu < self.topo.nnodes:
                raise ConfigError(
                    f"event gpu {event.gpu} not in {self.topo.name!r}"
                )
        members = frozenset(self.initial_members)
        embedding = self.embedding_for(members)
        check = self.plan_check_for(members)
        initial: Segment = (
            0, embedding, shard_assignments(embedding, self.topo.nnodes)
        )
        # The report is the run's state: ``segments[-1]`` is the current
        # ownership segment, and one checksum per completed iteration
        # makes ``len(weight_checksums)`` the next iteration.
        run = ElasticReport(
            weights=np.asarray(initial_weights, dtype=np.float64).copy(),
            weight_checksums=[],
            events=stream,
            records=[],
            segments=[initial],
            members=self.initial_members,
            initial_segment=initial,
            timeline=[
                f"start: members {sorted(members)}, plan {check.nops} ops "
                "verified"
            ],
        )
        for event in stream:
            self._run_span(run, event.at_iteration)
            self._transition(run, event, iterations)
        self._run_span(run, iterations)
        run.timeline.append(
            f"done: {iterations} iterations on final members "
            f"{list(run.members)}"
        )
        if self.checkpointer is not None:
            run.checkpoint_counters = dict(self.checkpointer.counters)
        return run


def elastic_serial_reference(
    network: NetworkModel,
    gradient_fn: GradientFn,
    initial_weights: np.ndarray,
    *,
    segments: list[Segment],
    layout: ChunkLayout,
    iterations: int,
    learning_rate: float = 0.05,
) -> np.ndarray:
    """The fault-free serial SGD an elastic run must reproduce bit-exactly.

    Replays each ownership segment with its member set's reduction
    order — the tree order for tree embeddings, the synthesized plan's
    replay order for synthesized fallbacks
    (:func:`segment_reduce_order`) — plus shard adoption, across any
    sequence of crashes, leaves and joins.  Floating-point addition is
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
