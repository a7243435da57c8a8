"""Degraded-mode recovery: re-embed the double tree over the survivors.

PR 1 made a GPU crash *fail-fast*: the abort cell stops the whole cluster
within one bounded step.  This module implements the next posture — keep
training.  The paper's Observation #4 is that the logical tree is
re-embeddable on whatever physical links exist (detour routes are exactly
that, statically); ForestColl re-plans collectives for heterogeneous
fabrics and Cloud Collectives reorders ranks around slow VMs.  Here the
same recover-by-re-planning idea runs end to end on the functional
cluster:

1. **abort** — the crashed kernel trips the :class:`AbortCell`; the run
   raises :class:`~repro.errors.AbortedError` with diagnostics;
2. **drain** — the kernel pool's abort grace lets every surviving kernel
   observe the flag and exit, and the drain joins any the pool recorded
   as still alive; in-flight chunks live only in the aborted run's wires
   and buffers, which are discarded with the runtime;
3. **detect** — the dead GPUs are read off the phase board (``"crashed
   in reduce t0 at chunk 1"``) with the abort reason as fallback;
4. **decide** — a :class:`RecoveryPolicy` compares the modeled cost of
   finishing on the degraded 7-GPU double tree against restarting on a
   healthy replacement from the last checkpoint;
5. **re-embed** — :func:`~repro.topology.tree_search.search_degraded_pair`
   finds the best pair over the survivors (compacted to dense ranks),
   the dead GPU's data shard is *adopted* by a deterministic survivor,
   and a fresh :class:`~repro.runtime.cluster.KernelPool` schedule is
   instantiated on the 7 ranks;
6. **resume** — training continues from the last consistent
   ``weight_history`` entry; the crashed iteration is redone.

Accuracy-neutrality extends across the recovery boundary: the recovered
weights are bit-identical to :func:`recovery_serial_reference`, a
fault-free serial SGD that replays the same reduction orders (8-GPU tree
order before the crash, 7-rank degraded order with shard adoption after).

The same state machine runs *through the interpreted plan path*: when a
survivor set has no feasible double tree, its segment executes the
synthesized plan via :class:`InterpretedSegment`, faults arm inside the
interpreter (joining the same fail-fast ``AbortCell`` protocol), crashes
are detected off the interpreter's phase board as dense plan ranks, and
the serial reference replays such segments in the plan's combined-graph
execution order (:func:`segment_reduce_order`) — so crash, cascade, and
recovery are uniform across hand-written kernels and compiled plans.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AbortedError, ConfigError
from repro.dnn.layers import NetworkModel
from repro.models.costmodel import (
    CostParams,
    degraded_overlapped_tree_time,
    overlapped_tree_time,
    restart_from_checkpoint_time,
)
from repro.plan.interpreter import PlanInterpreter, plan_reduce_order
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.faults import FaultPlan
from repro.runtime.sync import SpinConfig
from repro.runtime.training import (
    FunctionalTrainer,
    GradientFn,
    private_gradient,
    serial_reference,
    tree_reduce_order,
)
from repro.topology.base import PhysicalTopology
from repro.topology.dgx1 import NVLINK_ALPHA, NVLINK_BANDWIDTH
from repro.topology.logical import BinaryTree
from repro.topology.routing import Router
from repro.topology.tree_search import (
    DegradedEmbedding,
    detour_map_for,
    search_degraded_pair,
    search_tree_pair,
)

#: Recovery actions / policy modes.
REEMBED = "reembed"
RESTART = "restart"
COST_BASED = "cost"

_POLICY_MODES = (COST_BASED, REEMBED, RESTART)

#: Kernel names carry the GPU id; fallback when the phase board is clean.
_KERNEL_GPU_RE = re.compile(r"kernel '[a-z-]+ t\d+ g(\d+)'")

#: Interpreter kernels are named ``plan g<rank> tb (0, 'up')``; the id
#: they carry is the *dense plan rank*, not a physical GPU.  The name
#: itself contains quotes, so ``{name!r}`` renders it double-quoted.
_PLAN_KERNEL_GPU_RE = re.compile(r"kernel [\"']plan g(\d+) tb")

#: A starved plan wire names its semaphore ``'plan reduce t0 1->3'``;
#: the *poster* (first id) is the rank that went silent.
_PLAN_SEMAPHORE_RE = re.compile(r"semaphore 'plan [a-z-]+ t\d+ (\d+)->(\d+)")

#: A wait timeout names the starved semaphore ``'t0:5->6.up'``; the
#: *poster* (first id) is the GPU that went silent.
_SEMAPHORE_RE = re.compile(r"semaphore 't\d+:(\d+)->(\d+)\.")


def detect_dead_gpus(runtime) -> tuple[int, ...]:
    """GPUs that died in ``runtime``'s most recent aborted run.

    ``runtime`` is anything exposing ``nnodes`` / ``phase_board`` /
    ``abort_cell`` — a hand-written :class:`TreeAllReduceRuntime` or an
    :class:`InterpretedSegment` (where the returned ids are dense plan
    ranks, which the caller maps back to physical GPUs via the
    embedding's ``gpu_of``).

    Primary source is the phase board: crash/stuck faults stamp their
    last phase before firing, and those terminal stamps are sticky, so
    a faulty GPU's still-running sibling kernels on other trees cannot
    erase them.  If the board shows nothing the abort reason is parsed
    instead: a failing kernel's name carries the GPU id
    (``'reduce-bcast t0 g3'`` for the tree kernels, ``'plan g3 tb ...'``
    for the interpreter), and a wait timeout names the starved
    semaphore, whose *poster* is the GPU that went silent (best-effort:
    a transitively starved wait can name a healthy intermediate).
    """
    dead: set[int] = set()
    board = runtime.phase_board
    if board is not None:
        for gpu in range(runtime.nnodes):
            phase = board.get(gpu)
            if "crashed" in phase or "stuck" in phase:
                dead.add(gpu)
    if not dead and runtime.abort_cell is not None:
        reason = runtime.abort_cell.reason
        match = _KERNEL_GPU_RE.search(reason) or _PLAN_KERNEL_GPU_RE.search(
            reason
        )
        if match:
            dead.add(int(match.group(1)))
        else:
            match = _SEMAPHORE_RE.search(reason) or (
                _PLAN_SEMAPHORE_RE.search(reason)
            )
            if match:
                dead.add(int(match.group(1)))
    return tuple(sorted(dead))


def drain_aborted_run(runtime, *, grace: float = 0.05) -> dict[str, int]:
    """Step 2 of the recovery state machine: drain the aborted cluster.

    By the time :class:`~repro.errors.AbortedError` propagates, the
    kernel pool has already granted its abort grace, so surviving kernel
    threads have observed the flag; any in-flight chunk exists only in
    the aborted run's wires and gradient buffers, which die with the
    runtime object.  This helper asserts the abort actually fired, joins
    the kernel threads the pool recorded as still alive when it raised
    (``grace`` seconds at most in total; none left means no wait), and
    returns the final fault-stats snapshot for the recovery timeline.

    Raises:
        ConfigError: when called on a runtime that never aborted.
    """
    cell = runtime.abort_cell
    if cell is None or not cell.is_set():
        raise ConfigError("drain requested but the cluster never aborted")
    deadline = time.monotonic() + grace
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
    assignment, so :func:`recovery_serial_reference` can replay it
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


class InterpretedSegment:
    """A training segment on a *synthesized* embedding's plan.

    Survivor sets with no feasible double tree carry a verified
    synthesized plan (``embedding.synthesized``) instead of trees the
    hand-written kernels could execute; this drives the same SGD math
    as :class:`~repro.runtime.training.FunctionalTrainer` — per-rank
    gradients, summed collective, ``w -= lr * sum`` — through
    :class:`repro.plan.interpreter.PlanInterpreter`.

    The segment also exposes the runtime surface the recovery state
    machine drives — ``nnodes``, ``fault_plan``, and the live
    interpreter's ``abort_cell`` / ``phase_board`` — so
    :func:`drain_aborted_run` and :func:`detect_dead_gpus` work on an
    aborted interpreted segment exactly as they do on the hand-written
    runtimes.  Detected ids are dense plan ranks; callers map them back
    to physical GPUs through ``embedding.gpu_of``.

    Args:
        embedding: synthesized survivor embedding (carries the plan).
        network: layer table (sets the gradient length).
        learning_rate: SGD step size on the summed gradient.
        spin: spin/timeout configuration for the interpreter.
        fault_plan: optional fault injection, already expressed in
            dense plan ranks (see :meth:`FaultPlan.retargeted`).
    """

    def __init__(
        self,
        embedding: DegradedEmbedding,
        network: NetworkModel,
        *,
        learning_rate: float,
        spin: SpinConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if not embedding.synthesized or embedding.plan is None:
            raise ConfigError(
                "interpreted_segment needs a synthesized embedding"
            )
        self.embedding = embedding
        self.network = network
        self.learning_rate = learning_rate
        self.spin = spin
        self.fault_plan = fault_plan
        #: The most recent interpreter — carries the abort cell and
        #: phase board of the last (possibly aborted) run.
        self.interpreter = None

    @property
    def nnodes(self) -> int:
        return self.embedding.plan.nnodes

    @property
    def abort_cell(self):
        return (
            self.interpreter.abort_cell
            if self.interpreter is not None
            else None
        )

    @property
    def phase_board(self):
        return (
            self.interpreter.phase_board
            if self.interpreter is not None
            else None
        )

    def run(
        self,
        gradient_fn: GradientFn,
        weights: np.ndarray,
        iterations: int,
    ) -> list[np.ndarray]:
        """Run ``iterations`` steps; returns the weight history.

        Raises:
            AbortedError: a kernel crashed or stalled (injected fault);
                the interpreter's abort cell and phase board stay
                readable for drain/detect.
        """
        nranks = self.embedding.topology.nnodes
        w = np.asarray(weights, dtype=np.float64).copy()
        history: list[np.ndarray] = []
        for iteration in range(iterations):
            # As in FunctionalTrainer.train: a gradient nothing else
            # holds becomes the rank's buffer, any other is copied.
            grads = [
                private_gradient(gradient_fn(w, rank, iteration))
                for rank in range(nranks)
            ]
            self.interpreter = PlanInterpreter(
                self.embedding.plan,
                total_elems=self.network.total_params,
                spin=self.spin,
                fault_plan=self.fault_plan,
                verify=False,  # gated once at synthesis time
            )
            report = self.interpreter.run(grads, in_place=True)
            del grads
            for out in report.outputs[1:]:
                if not np.array_equal(report.outputs[0], out):
                    raise ConfigError(
                        "GPUs diverged — the synthesized collective is "
                        "broken"
                    )
            w = w - self.learning_rate * report.outputs[0]
            history.append(w.copy())
            # Free this iteration's outputs before the next one allocates.
            del report
        return history


def interpreted_segment(
    embedding: DegradedEmbedding,
    network: NetworkModel,
    gradient_fn: GradientFn,
    weights: np.ndarray,
    iterations: int,
    *,
    learning_rate: float,
    spin=None,
    fault_plan: FaultPlan | None = None,
) -> list[np.ndarray]:
    """Run a training segment on a *synthesized* embedding's plan.

    Functional wrapper over :class:`InterpretedSegment` for quiet
    (unarmed) spans; returns the per-iteration weight history, like
    ``_segment``.
    """
    return InterpretedSegment(
        embedding,
        network,
        learning_rate=learning_rate,
        spin=spin,
        fault_plan=fault_plan,
    ).run(gradient_fn, weights, iterations)


def segment_reduce_order(
    embedding: DegradedEmbedding, layout, total_elems: int
):
    """The bit-exact serial reduction order for one recovery segment.

    Hand-written-kernel segments reduce in the embedding's tree order;
    synthesized segments reduce in the plan's combined-graph execution
    order (:func:`repro.plan.interpreter.plan_reduce_order`).  This is
    what lets one serial reference cross plan-path boundaries: each
    segment replays whichever reduction order actually executed it.
    """
    if embedding.synthesized:
        return plan_reduce_order(embedding.plan, total_elems=total_elems)
    return tree_reduce_order(embedding.trees, layout)


@dataclass
class RecoveryReport:
    """Everything one resilient training run did.

    Attributes:
        weights: final shared weights.
        weight_history: weights after every completed iteration (the
            crashed attempt is excluded; its redo is included).
        fault_at_iteration: iteration at which the fault plan was armed
            (-1 when the run had no fault plan).
        aborted: whether the cluster aborted and recovery engaged.
        abort_reason: the abort cell's recorded reason (empty otherwise).
        dead_gpus: physical GPUs detected dead.
        decision: the policy's cost comparison (None without an abort).
        embedding: the survivor re-embedding (None unless re-embedded).
        assignments: rank -> adopted physical shards (None unless
            re-embedded).
        resumed_from_iteration: iteration index training resumed at.
        timeline: human-readable state-machine trace.
        cascade_dead_gpus: physical GPUs lost to a second crash while
            running degraded (empty without a cascade).
        cascade_decision: the policy's comparison for the second crash.
        cascade_embedding: the second (6-survivor) re-embedding.
        cascade_assignments: rank -> adopted shards after the cascade.
        cascade_resumed_from_iteration: iteration index the post-cascade
            resume restarted at (-1 without a cascade).
        initial_dead: physical GPUs already dead before the run started
            (the trainer then runs every segment degraded — possibly
            interpreted — from iteration 0).
        initial_embedding: the pre-existing degraded embedding matching
            ``initial_dead`` (None when the run started healthy).
        initial_assignments: rank -> adopted shards for the initial
            embedding.
        fault_stats: injector counters snapshotted when the first abort
            drained (empty when nothing fired).
        cascade_fault_stats: same, for the cascade abort.
    """

    weights: np.ndarray
    weight_history: list[np.ndarray]
    fault_at_iteration: int
    aborted: bool
    abort_reason: str
    dead_gpus: tuple[int, ...]
    decision: RecoveryDecision | None
    embedding: DegradedEmbedding | None
    assignments: dict[int, tuple[int, ...]] | None
    resumed_from_iteration: int
    timeline: list[str] = field(default_factory=list)
    cascade_dead_gpus: tuple[int, ...] = ()
    cascade_decision: RecoveryDecision | None = None
    cascade_embedding: DegradedEmbedding | None = None
    cascade_assignments: dict[int, tuple[int, ...]] | None = None
    cascade_resumed_from_iteration: int = -1
    initial_dead: tuple[int, ...] = ()
    initial_embedding: DegradedEmbedding | None = None
    initial_assignments: dict[int, tuple[int, ...]] | None = None
    fault_stats: dict = field(default_factory=dict)
    cascade_fault_stats: dict = field(default_factory=dict)

    @property
    def all_dead_gpus(self) -> tuple[int, ...]:
        """Every physical GPU lost or already dead across the run."""
        return tuple(sorted(
            {*self.initial_dead, *self.dead_gpus, *self.cascade_dead_gpus}
        ))


class ResilientTrainer:
    """Data-parallel SGD that survives a GPU crash by re-embedding.

    Wraps the healthy :class:`~repro.runtime.training.FunctionalTrainer`
    loop with the abort -> drain -> detect -> decide -> re-embed ->
    resume state machine described in the module docstring.

    Args:
        topo: the intact physical topology (GPU ids ``0..P-1``).
        network: layer table for the gradient queue.
        gradient_fn: per-physical-GPU local gradient function; shard
            adoption composes on top of it after a crash.
        trees: healthy double-tree pair (searched on ``topo`` when
            omitted).
        detour_map: healthy detour routes (computed when omitted).
        chunks_per_tree: pipeline chunk count K per tree.
        learning_rate: SGD step size on the summed gradient.
        policy: degraded-vs-restart policy (default: cost-based).
        spin: spin config for every runtime this trainer builds.
        detour_preference: preferred detour intermediates (physical ids).
        search_iterations / search_restarts / search_seed: degraded
            hill-climb budget.
        initial_dead: physical GPUs already dead when training starts —
            the trainer then runs *every* segment on the matching
            degraded embedding (the interpreted plan path when the
            survivor set has no feasible double tree), and the armed
            fault fires inside that segment.
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
        initial_dead: tuple[int, ...] = (),
    ):
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
        if trees is None:
            router = Router(topo, detour_preference=detour_preference)
            trees, _cost = search_tree_pair(topo, router=router)
            detour_map = detour_map_for(trees, topo, router)
        self.trees = trees
        self.detour_map = dict(detour_map or {})
        self.initial_dead = tuple(sorted(set(initial_dead)))
        self.initial_embedding: DegradedEmbedding | None = None
        if self.initial_dead:
            self.initial_embedding = search_degraded_pair(
                topo,
                self.initial_dead,
                detour_preference=detour_preference,
                synth_fallback=True,
                **self._search_kwargs,
            )

    @property
    def layout(self):
        """Chunk layout shared by the healthy and degraded runtimes (it
        depends on element count, tree count, and K — not on P)."""
        return self._healthy_runtime(None).layout

    # -- runtime construction -------------------------------------------

    def _healthy_runtime(
        self, fault_plan: FaultPlan | None
    ) -> TreeAllReduceRuntime:
        return TreeAllReduceRuntime(
            self.trees,
            total_elems=self.network.total_params,
            chunks_per_tree=self.chunks_per_tree,
            detour_map=self.detour_map,
            spin=self.spin,
            fault_plan=fault_plan,
        )

    def _degraded_runtime(
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

    @staticmethod
    def _translated_faults(
        plan: FaultPlan, embedding: DegradedEmbedding
    ) -> FaultPlan:
        """Rewrite GPU-fault targets from physical ids to degraded ranks.

        A cascade fault is specified against the *physical* GPU (what an
        operator would name); the degraded runtime addresses its kernels
        by dense survivor rank.

        Raises:
            ConfigError: when a fault targets an already-dead GPU.
        """
        return plan.retargeted(embedding.rank_of)

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

    def _degraded_segment(
        self,
        embedding: DegradedEmbedding,
        gradient_fn: GradientFn,
        weights: np.ndarray,
        iterations: int,
    ) -> list[np.ndarray]:
        """Run a degraded segment on whatever the embedding supports:
        the hand-written tree kernels, or — for a synthesized-fallback
        embedding — its verified plan through the interpreter."""
        if embedding.synthesized:
            return interpreted_segment(
                embedding,
                self.network,
                gradient_fn,
                weights,
                iterations,
                learning_rate=self.learning_rate,
                spin=self.spin,
            )
        return self._segment(
            self._degraded_runtime(embedding), gradient_fn, weights,
            iterations,
        )

    @staticmethod
    def _shifted(fn: GradientFn, offset: int) -> GradientFn:
        """Gradient function with the iteration counter rebased, so a
        resumed segment sees the global iteration index."""

        def shifted(weights: np.ndarray, gpu: int, iteration: int):
            return fn(weights, gpu, iteration + offset)

        return shifted

    # -- entry point -----------------------------------------------------

    def train(
        self,
        initial_weights: np.ndarray,
        *,
        iterations: int,
        fault_plan: FaultPlan | None = None,
        fault_at_iteration: int = 0,
        cascade_fault_plan: FaultPlan | None = None,
        cascade_at_iteration: int = 0,
    ) -> RecoveryReport:
        """Run ``iterations`` steps, arming ``fault_plan`` at the given
        iteration and recovering if the cluster aborts.

        ``cascade_fault_plan`` models a second failure while already
        running degraded: it is armed ``cascade_at_iteration`` degraded
        iterations after the first resume (GPU-fault targets given as
        *physical* ids), and a second abort re-embeds again on the
        remaining survivors.  It is only armed when the first recovery
        chose re-embedding.

        Raises:
            ConfigError: on invalid iteration indices.
            AbortedError: only when recovery itself is impossible (e.g.
                too few survivors) — re-raised with the original abort.
        """
        if iterations < 1:
            raise ConfigError("need at least 1 iteration")
        if not 0 <= fault_at_iteration < iterations:
            raise ConfigError(
                f"fault_at_iteration {fault_at_iteration} outside "
                f"[0, {iterations})"
            )
        timeline: list[str] = []
        weights = np.asarray(initial_weights, dtype=np.float64).copy()
        history: list[np.ndarray] = []

        # Base segment: healthy 8-GPU kernels, or — with initial_dead —
        # the pre-degraded embedding (interpreted when synthesized).
        base_embedding = self.initial_embedding
        base_assignments: dict[int, tuple[int, ...]] | None = None
        base_fn = self.gradient_fn
        base_label = "healthy"
        if base_embedding is not None:
            base_assignments = shard_assignments(
                base_embedding, self.topo.nnodes
            )
            base_fn = adopted_gradient_fn(
                self.gradient_fn, base_assignments
            )
            base_label = "degraded"
            timeline.append(
                f"initial: GPUs {list(self.initial_dead)} already dead; "
                f"{base_embedding.topology.nnodes} ranks"
                + (
                    f" on a synthesized {base_embedding.plan_strategy} plan"
                    if base_embedding.synthesized
                    else ""
                )
            )

        def base_quiet(w: np.ndarray, n: int) -> list[np.ndarray]:
            if base_embedding is None:
                return self._segment(
                    self._healthy_runtime(None), base_fn, w, n
                )
            return self._degraded_segment(base_embedding, base_fn, w, n)

        # Prefix: iterations before the fault is armed.
        prefix = fault_at_iteration if fault_plan is not None else 0
        if prefix:
            history.extend(base_quiet(weights, prefix))
            weights = history[-1].copy()
            timeline.append(
                f"{base_label}: iterations 0..{prefix - 1} done"
            )

        # Faulted attempt (or the whole run when no plan is armed).
        # ``attempt`` always exposes abort_cell/phase_board/fault_plan/
        # nnodes, so drain/detect below work on either execution path.
        remaining = iterations - prefix
        shifted_fn = self._shifted(base_fn, prefix)
        if base_embedding is None:
            attempt = self._healthy_runtime(fault_plan)

            def run_attempt(w, n):
                return self._segment(attempt, shifted_fn, w, n)

        else:
            armed = (
                fault_plan.retargeted(base_embedding.rank_of)
                if fault_plan is not None
                else None
            )
            if base_embedding.synthesized:
                attempt = InterpretedSegment(
                    base_embedding,
                    self.network,
                    learning_rate=self.learning_rate,
                    spin=self.spin,
                    fault_plan=armed,
                )

                def run_attempt(w, n):
                    return attempt.run(shifted_fn, w, n)

            else:
                attempt = self._degraded_runtime(
                    base_embedding, fault_plan=armed
                )

                def run_attempt(w, n):
                    return self._segment(attempt, shifted_fn, w, n)

        try:
            history.extend(run_attempt(weights, remaining))
            timeline.append(
                f"{base_label}: iterations {prefix}..{iterations - 1} done"
                + (" (armed fault never aborted)" if fault_plan else "")
            )
            return RecoveryReport(
                weights=history[-1].copy(),
                weight_history=history,
                fault_at_iteration=(
                    fault_at_iteration if fault_plan is not None else -1
                ),
                aborted=False,
                abort_reason="",
                dead_gpus=(),
                decision=None,
                embedding=None,
                assignments=None,
                resumed_from_iteration=-1,
                timeline=timeline,
                initial_dead=self.initial_dead,
                initial_embedding=base_embedding,
                initial_assignments=base_assignments,
            )
        except AbortedError as abort:
            # How far did the faulted segment get before dying?  The
            # trainer's history is lost with the exception, so the redo
            # restarts from the last completed *checkpoint* — the prefix
            # boundary.  (FunctionalTrainer aborts on its first faulted
            # iteration because crash faults re-fire every run, so the
            # prefix boundary IS the last consistent entry.)
            timeline.append(f"abort: {abort.reason}")
            fault_stats = drain_aborted_run(attempt)
            timeline.append(
                "drain: in-flight chunks discarded with the aborted run"
                + (f"; fault stats {fault_stats}" if fault_stats else "")
            )
            detected = detect_dead_gpus(attempt)
            if not detected:
                timeline.append("detect: no dead GPU identified; rethrowing")
                raise
            if base_embedding is not None:
                # Interpreted/degraded kernels address dense ranks; map
                # back to the physical ids the operator reasons about.
                dead = tuple(
                    sorted(base_embedding.gpu_of[r] for r in detected)
                )
                timeline.append(
                    f"detect: dead ranks {list(detected)} = physical "
                    f"GPUs {list(dead)}"
                )
            else:
                dead = detected
                timeline.append(f"detect: dead GPUs {list(dead)}")

        embedding = search_degraded_pair(
            self.topo,
            tuple(sorted({*self.initial_dead, *dead})),
            detour_preference=self.detour_preference,
            synth_fallback=True,
            **self._search_kwargs,
        )
        if embedding.synthesized:
            timeline.append(
                "re-embed: no feasible double tree over the survivors; "
                f"synthesized {embedding.plan_strategy} plan "
                f"({len(embedding.plan.ops)} ops, verified)"
            )
        decision = self.policy.decide(
            nnodes_healthy=self.topo.nnodes,
            nnodes_degraded=embedding.topology.nnodes,
            nbytes=float(self.network.total_params * 8),
            detours=embedding.cost.detours,
            conflicts=embedding.cost.conflicts,
            remaining_iterations=remaining,
        )
        timeline.append(
            f"decide: {decision.action} ({decision.reason})"
        )

        assignments: dict[int, tuple[int, ...]] | None = None
        cascade_dead: tuple[int, ...] = ()
        cascade_decision: RecoveryDecision | None = None
        cascade_embedding: DegradedEmbedding | None = None
        cascade_assignments: dict[int, tuple[int, ...]] | None = None
        cascade_fault_stats: dict = {}
        cascade_split = -1
        if decision.action == REEMBED:
            assignments = shard_assignments(embedding, self.topo.nnodes)
            timeline.append(
                "re-embed: "
                f"{embedding.topology.nnodes} ranks, cost {embedding.cost}, "
                f"shards {assignments}"
            )
            degraded_fn = adopted_gradient_fn(self.gradient_fn, assignments)
            if cascade_fault_plan is None:
                history.extend(
                    self._degraded_segment(
                        embedding,
                        self._shifted(degraded_fn, prefix),
                        weights, remaining,
                    )
                )
            else:
                if not 0 <= cascade_at_iteration < remaining:
                    raise ConfigError(
                        f"cascade_at_iteration {cascade_at_iteration} "
                        f"outside [0, {remaining})"
                    )
                if cascade_at_iteration:
                    history.extend(
                        self._degraded_segment(
                            embedding,
                            self._shifted(degraded_fn, prefix),
                            weights, cascade_at_iteration,
                        )
                    )
                    weights = history[-1].copy()
                    timeline.append(
                        f"degraded: iterations {prefix}.."
                        f"{prefix + cascade_at_iteration - 1} done on "
                        f"{embedding.topology.nnodes} ranks"
                    )
                cascade_split = prefix + cascade_at_iteration
                left = remaining - cascade_at_iteration
                armed = self._translated_faults(
                    cascade_fault_plan, embedding
                )
                cascade_fn = self._shifted(degraded_fn, cascade_split)
                if embedding.synthesized:
                    cascade_runtime = InterpretedSegment(
                        embedding,
                        self.network,
                        learning_rate=self.learning_rate,
                        spin=self.spin,
                        fault_plan=armed,
                    )

                    def run_cascade(w, n):
                        return cascade_runtime.run(cascade_fn, w, n)

                else:
                    cascade_runtime = self._degraded_runtime(
                        embedding, fault_plan=armed
                    )

                    def run_cascade(w, n):
                        return self._segment(cascade_runtime, cascade_fn,
                                             w, n)

                try:
                    history.extend(run_cascade(weights, left))
                    timeline.append(
                        "degraded: armed cascade fault never aborted"
                    )
                    cascade_split = -1
                except AbortedError as second:
                    timeline.append(f"cascade abort: {second.reason}")
                    cascade_fault_stats = drain_aborted_run(
                        cascade_runtime
                    )
                    timeline.append(
                        "drain: in-flight chunks discarded with the "
                        "aborted degraded run"
                        + (
                            f"; fault stats {cascade_fault_stats}"
                            if cascade_fault_stats
                            else ""
                        )
                    )
                    dead_ranks = detect_dead_gpus(cascade_runtime)
                    if not dead_ranks:
                        timeline.append(
                            "detect: no dead GPU identified; rethrowing"
                        )
                        raise
                    cascade_dead = tuple(
                        sorted(embedding.gpu_of[r] for r in dead_ranks)
                    )
                    timeline.append(
                        f"detect: dead ranks {list(dead_ranks)} = "
                        f"physical GPUs {list(cascade_dead)}"
                    )
                    all_dead = tuple(sorted(
                        {*self.initial_dead, *dead, *cascade_dead}
                    ))
                    cascade_embedding = search_degraded_pair(
                        self.topo,
                        all_dead,
                        detour_preference=self.detour_preference,
                        synth_fallback=True,
                        **self._search_kwargs,
                    )
                    if cascade_embedding.synthesized:
                        timeline.append(
                            "re-embed: no feasible double tree over the "
                            "cascade survivors; synthesized "
                            f"{cascade_embedding.plan_strategy} plan "
                            f"({len(cascade_embedding.plan.ops)} ops, "
                            "verified)"
                        )
                    cascade_decision = self.policy.decide(
                        nnodes_healthy=self.topo.nnodes,
                        nnodes_degraded=cascade_embedding.topology.nnodes,
                        nbytes=float(self.network.total_params * 8),
                        detours=cascade_embedding.cost.detours,
                        conflicts=cascade_embedding.cost.conflicts,
                        remaining_iterations=left,
                    )
                    timeline.append(
                        f"decide: {cascade_decision.action} "
                        f"({cascade_decision.reason})"
                    )
                    if cascade_decision.action == REEMBED:
                        cascade_assignments = shard_assignments(
                            cascade_embedding, self.topo.nnodes
                        )
                        timeline.append(
                            "re-embed: "
                            f"{cascade_embedding.topology.nnodes} ranks, "
                            f"cost {cascade_embedding.cost}, "
                            f"shards {cascade_assignments}"
                        )
                        resume_fn = self._shifted(
                            adopted_gradient_fn(
                                self.gradient_fn, cascade_assignments
                            ),
                            cascade_split,
                        )
                        history.extend(
                            self._degraded_segment(
                                cascade_embedding, resume_fn, weights,
                                left,
                            )
                        )
                    else:
                        timeline.append(
                            "restart: replacement GPUs join, healthy "
                            "8-GPU schedule"
                        )
                        cascade_embedding = None
                        history.extend(
                            self._segment(
                                self._healthy_runtime(None),
                                self._shifted(
                                    self.gradient_fn, cascade_split
                                ),
                                weights, left,
                            )
                        )
                    timeline.append(
                        f"resume: iterations {cascade_split}.."
                        f"{iterations - 1} redone after cascading crash"
                    )
        else:
            timeline.append(
                "restart: replacement GPU joins, healthy 8-GPU schedule"
            )
            history.extend(
                self._segment(
                    self._healthy_runtime(None),
                    self._shifted(self.gradient_fn, prefix),
                    weights, remaining,
                )
            )
            embedding = None
        timeline.append(
            f"resume: iterations {prefix}..{iterations - 1} redone from "
            f"the last consistent weight_history entry"
        )
        return RecoveryReport(
            weights=history[-1].copy(),
            weight_history=history,
            fault_at_iteration=fault_at_iteration,
            aborted=True,
            abort_reason=attempt.abort_cell.reason,
            dead_gpus=dead,
            decision=decision,
            embedding=embedding,
            assignments=assignments,
            resumed_from_iteration=prefix,
            timeline=timeline,
            cascade_dead_gpus=cascade_dead,
            cascade_decision=cascade_decision,
            cascade_embedding=cascade_embedding,
            cascade_assignments=cascade_assignments,
            cascade_resumed_from_iteration=cascade_split,
            initial_dead=self.initial_dead,
            initial_embedding=base_embedding,
            initial_assignments=base_assignments,
            fault_stats=fault_stats,
            cascade_fault_stats=cascade_fault_stats,
        )


def recovery_serial_reference(
    network: NetworkModel,
    gradient_fn: GradientFn,
    initial_weights: np.ndarray,
    *,
    report: RecoveryReport,
    healthy_trees: tuple[BinaryTree, ...],
    healthy_layout,
    iterations: int,
    learning_rate: float = 0.05,
) -> np.ndarray:
    """The fault-free serial SGD a recovered run must reproduce bit-exactly.

    Replays the recovered run's schedule without ever experiencing the
    fault: iterations before the resume point use the base reduction
    order over the base shards — the healthy tree order, or, when the
    run started with ``initial_dead`` GPUs, the initial embedding's
    order with its shard adoption (the plan execution order when that
    embedding is synthesized); iterations from the resume point use the
    re-embedded order with the cumulative adoption; and when the run
    suffered a cascading second crash, iterations from the cascade
    resume point use the next order.  Each segment's order crosses
    plan-path boundaries freely: hand-written-kernel segments replay
    the tree order, interpreted segments replay the plan's combined-
    graph execution order.  Floating-point addition is not associative,
    so matching this replayed order — rather than ``np.sum`` — is
    exactly the accuracy-neutrality claim extended across the recovery
    boundary.

    Raises:
        ConfigError: when ``report`` did not re-embed (use the plain
            :func:`~repro.runtime.training.serial_reference` then).
    """
    if report.embedding is None or report.assignments is None:
        raise ConfigError(
            "report has no degraded embedding; compare against "
            "serial_reference instead"
        )
    split = report.resumed_from_iteration
    weights = np.asarray(initial_weights, dtype=np.float64).copy()
    if split:
        if report.initial_embedding is not None:
            base_fn = adopted_gradient_fn(
                gradient_fn, report.initial_assignments
            )
            weights = serial_reference(
                network, base_fn, weights,
                nnodes=report.initial_embedding.topology.nnodes,
                iterations=split,
                learning_rate=learning_rate,
                reduce_order=segment_reduce_order(
                    report.initial_embedding, healthy_layout,
                    network.total_params,
                ),
            )
        else:
            weights = serial_reference(
                network, gradient_fn, weights,
                nnodes=len(healthy_trees[0].nodes),
                iterations=split,
                learning_rate=learning_rate,
                reduce_order=tree_reduce_order(
                    healthy_trees, healthy_layout
                ),
            )
    # Post-crash segments: (start iteration, embedding, assignments),
    # one per successful re-embedding.  The chunk layout is shared by
    # every runtime — it depends on element count, tree count, and K,
    # not on P.
    segments = [(split, report.embedding, report.assignments)]
    if (
        report.cascade_embedding is not None
        and report.cascade_assignments is not None
        and report.cascade_resumed_from_iteration >= 0
    ):
        segments.append((
            report.cascade_resumed_from_iteration,
            report.cascade_embedding,
            report.cascade_assignments,
        ))
    for i, (start, embedding, assignments) in enumerate(segments):
        end = (
            segments[i + 1][0] if i + 1 < len(segments) else iterations
        )
        if end <= start:
            continue
        degraded_fn = adopted_gradient_fn(gradient_fn, assignments)
        weights = serial_reference(
            network,
            ResilientTrainer._shifted(degraded_fn, start),
            weights,
            nnodes=embedding.topology.nnodes,
            iterations=end - start,
            learning_rate=learning_rate,
            reduce_order=segment_reduce_order(
                embedding, healthy_layout, network.total_params
            ),
        )
    return weights
