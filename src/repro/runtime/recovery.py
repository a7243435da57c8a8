"""Crash-only recovery: :class:`ResilientTrainer` on the membership machine.

A GPU crash is a membership event and a cascade is two.
:class:`ResilientTrainer` is the configuration of
:class:`~repro.runtime.elastic.ElasticTrainer` for that story: a fixed
set of GPUs (minus any ``initial_dead``), no checkpointer, and a
RESTART decision that brings replacement GPUs in and keeps the live
weights.  Its ``train(fault_plan=..., cascade_fault_plan=...)`` turns
each plan's single crash into a ``MembershipEvent("crash", ...)`` of
one elastic run (the conversion lives beside
:func:`~repro.runtime.elastic.parse_events`), so abort -> drain ->
detect -> decide -> re-embed -> verify -> resume runs on one state
machine, and the report is the elastic run's
:class:`~repro.runtime.elastic.ElasticReport`, read through its crash
views (``RecoveryReport`` is the same class).
:func:`recovery_serial_reference` is a facade over
:func:`~repro.runtime.elastic.elastic_serial_reference`, the one
segment replay.

The recovery building blocks — detection, drain, the policy, shard
adoption — live with the machine in :mod:`repro.runtime.elastic` and are
re-exported here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.dnn.layers import NetworkModel
from repro.runtime.elastic import (  # noqa: F401 - re-exported
    COST_BASED,
    CRASH_EVENT,
    REEMBED,
    RESTART,
    ElasticReport,
    ElasticTrainer,
    MembershipEvent,
    RecoveryDecision,
    RecoveryPolicy,
    _crash_events,
    adopted_gradient_fn,
    detect_dead_gpus,
    drain_aborted_run,
    elastic_serial_reference,
    segment_reduce_order,
    shard_assignments,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.sync import SpinConfig
from repro.runtime.training import GradientFn
from repro.topology.base import PhysicalTopology
from repro.topology.logical import BinaryTree
from repro.topology.routing import Router
from repro.topology.tree_search import detour_map_for, search_tree_pair

#: A crash-recovery run's report: the elastic report and its crash views.
RecoveryReport = ElasticReport


class ResilientTrainer(ElasticTrainer):
    """Data-parallel SGD that survives GPU crashes by re-embedding.

    Args:
        topo: the intact physical topology (GPU ids ``0..P-1``).
        network: layer table (sets the gradient length).
        gradient_fn: per-physical-GPU local gradient function; shard
            adoption composes on top of it after a crash.
        trees: healthy double-tree pair (searched on ``topo`` when
            omitted).
        detour_map: healthy detour routes (computed when ``trees`` is
            omitted, none otherwise).
        chunks_per_tree: pipeline chunk count K per tree.
        learning_rate: SGD step size on the summed gradient.
        policy: degraded-vs-restart policy (default: cost-based).
        spin: spin config for every interpreter this trainer builds.
        detour_preference: preferred detour intermediates (physical ids).
        search_iterations / search_restarts / search_seed: degraded
            hill-climb budget.
        initial_dead: physical GPUs already dead when training starts —
            every iteration then runs on the matching degraded embedding
            (a synthesized plan when the survivor set has no feasible
            double tree).

    Raises:
        ConfigError: an ``initial_dead`` GPU that is not in ``topo``.
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
        for gpu in initial_dead:
            if not 0 <= gpu < topo.nnodes:
                raise ConfigError(f"initial dead GPU {gpu} not in {topo.name!r}")
        if trees is None:
            router = Router(topo, detour_preference=detour_preference)
            trees, _cost = search_tree_pair(topo, router=router)
            detour_map = detour_map_for(trees, topo, router)
        self.trees = trees
        self.detour_map = dict(detour_map or {})
        self.initial_dead = tuple(sorted(set(initial_dead)))
        super().__init__(
            topo,
            network,
            gradient_fn,
            trees=trees,
            detour_map=self.detour_map,
            chunks_per_tree=chunks_per_tree,
            learning_rate=learning_rate,
            policy=policy,
            spin=spin,
            detour_preference=detour_preference,
            search_iterations=search_iterations,
            search_restarts=search_restarts,
            search_seed=search_seed,
            initial_members=tuple(
                g for g in range(topo.nnodes) if g not in self.initial_dead
            ),
            replace_on_restart=True,
        )
        #: The degraded embedding matching ``initial_dead`` (None when
        #: training starts healthy).
        self.initial_embedding = (
            self.embedding_for(frozenset(self.initial_members))
            if self.initial_dead
            else None
        )

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
        """Run ``iterations`` steps with ``fault_plan``'s crash at
        ``fault_at_iteration``, recovering when the cluster aborts.

        ``cascade_fault_plan`` is a second crash (physical GPU id)
        ``cascade_at_iteration`` iterations after the first; both are
        crash events of one :meth:`ElasticTrainer.train` run.

        Raises:
            ConfigError: on invalid iteration indices, or a fault plan
                that is not a single crash.
            AbortedError: only when recovery itself is impossible (e.g.
                no dead GPU identified) — re-raised with the original
                abort.
        """
        if cascade_at_iteration < 0:
            raise ConfigError("cascade_at_iteration must be non-negative")
        events = _crash_events(
            (fault_plan, fault_at_iteration),
            (cascade_fault_plan, fault_at_iteration + cascade_at_iteration),
        )
        return super().train(
            initial_weights, iterations=iterations, events=events
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

    :func:`~repro.runtime.elastic.elastic_serial_reference` over the
    run's ownership segments: the starting order (healthy tree, or the
    ``initial_dead`` embedding's), then each recovery's re-embedded
    order with the cumulative shard adoption (or the healthy order
    again after a replacement restart).  ``healthy_trees`` is kept for
    callers; the segments carry every embedding.

    Raises:
        ConfigError: when ``report`` never recovered from a crash (use
            the plain :func:`~repro.runtime.training.serial_reference`
            then).
    """
    if not report.aborted:
        raise ConfigError(
            "report has no degraded embedding: no crash aborted the run; "
            "compare against serial_reference instead"
        )
    return elastic_serial_reference(
        network,
        gradient_fn,
        initial_weights,
        segments=report.segments,
        layout=healthy_layout,
        iterations=iterations,
        learning_rate=learning_rate,
    )
