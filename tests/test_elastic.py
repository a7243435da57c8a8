"""Elastic membership: N→N±k re-embedding with durable checkpoints.

The headline property extends the recovery suite's bitwise claim across
arbitrary membership sequences: whatever mixture of crashes, leaves,
joins, and checkpoint restores a run goes through, its final weights are
**bit-identical** to the multi-segment serial reference replaying the
same per-segment reduction orders and shard adoptions.  Every membership
boundary must also pass the plan-IR gate (compile + static verify)
before any iteration runs on it.
"""

import numpy as np
import pytest

import repro.runtime.elastic as elastic_mod
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.errors import ConfigError
from repro.plan.interpreter import PlanInterpreter, plan_reduce_order
from repro.plan.verifier import verify_plan
from repro.runtime import (
    Checkpointer,
    ElasticTrainer,
    FaultPlan,
    FaultyBackend,
    MemoryBackend,
    MembershipEvent,
    RecoveryPolicy,
    StorageFault,
    elastic_serial_reference,
    parse_events,
)
from repro.runtime.cluster import payload_checksum
from repro.runtime.recovery import REEMBED, RESTART
from repro.runtime.sync import SpinConfig
from repro.runtime.training import tree_reduce_order
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

FAST = SpinConfig(timeout=10.0)
ELEMS = 256


def make_network(elems: int = ELEMS) -> NetworkModel:
    return NetworkModel(
        name="elastic",
        layers=(LayerSpec(name="L0", params=elems, fwd_flops=1e6),),
    )


def make_gradient_fn(elems: int = ELEMS, seed: int = 0):
    rng = np.random.default_rng(seed)
    targets = [rng.normal(size=elems) for _ in range(8)]

    def fn(weights, gpu, iteration):
        del iteration
        return weights - targets[gpu]

    return fn


def make_trainer(gradient_fn, *, policy=None, checkpointer=None,
                 checkpoint_every=0, initial_members=None,
                 elems: int = ELEMS):
    return ElasticTrainer(
        dgx1_topology(),
        make_network(elems),
        gradient_fn,
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=0.02,
        policy=policy or RecoveryPolicy(mode=REEMBED),
        spin=FAST,
        detour_preference=DETOUR_NODES,
        checkpointer=checkpointer,
        checkpoint_every=checkpoint_every,
        initial_members=initial_members,
    )


def assert_bit_exact(trainer, report, gradient_fn, w0, iterations,
                     elems: int = ELEMS):
    expected = elastic_serial_reference(
        make_network(elems), gradient_fn, w0.copy(),
        segments=report.segments,
        layout=trainer.layout,
        iterations=iterations,
        learning_rate=0.02,
    )
    np.testing.assert_array_equal(report.weights, expected)


class TestParseEvents:
    def test_explicit_iterations(self):
        events = parse_events("crash:3@2,join:3@5", iterations=6)
        assert [(e.kind, e.gpu, e.at_iteration) for e in events] == [
            ("crash", 3, 2), ("join", 3, 5),
        ]

    def test_implicit_iterations_deterministic(self):
        a = parse_events("crash:1,join:1", iterations=8, seed=4)
        b = parse_events("crash:1,join:1", iterations=8, seed=4)
        assert a == b
        assert all(1 <= e.at_iteration < 8 for e in a)
        assert len({e.at_iteration for e in a}) == 2

    def test_sorted_by_iteration(self):
        events = parse_events("join:3@5,leave:2@1", iterations=6)
        assert [e.at_iteration for e in events] == [1, 5]

    def test_bad_token_rejected(self):
        with pytest.raises(ConfigError, match="kind:gpu"):
            parse_events("crash3", iterations=4)
        with pytest.raises(ConfigError, match="crash3"):
            parse_events("crash3:1", iterations=4)

    def test_too_many_implicit_events(self):
        with pytest.raises(ConfigError):
            parse_events("crash:1,crash:2,crash:4", iterations=3)


class TestEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            MembershipEvent(kind="explode", gpu=1, at_iteration=1)

    def test_only_crashes_land_on_iteration_zero(self):
        MembershipEvent(kind="crash", gpu=1, at_iteration=0)
        for kind in ("leave", "join"):
            with pytest.raises(ConfigError, match=">= 1"):
                MembershipEvent(kind=kind, gpu=1, at_iteration=0)

    def test_same_iteration_crashes_apply_in_given_order(self):
        # A cascade landing on the first crash's iteration fires second
        # even when its gpu id is lower.
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(gradient_fn)
        w0 = np.random.default_rng(3).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(
                MembershipEvent("crash", 6, 1),
                MembershipEvent("crash", 2, 1),
            ),
        )
        assert [r.dead_detected for r in report.records] == [(6,), (2,)]
        assert_bit_exact(trainer, report, gradient_fn, w0, 3)

    def test_crash_target_must_be_member(self):
        trainer = make_trainer(
            make_gradient_fn(), initial_members=(0, 1, 2, 3, 4, 5, 6)
        )
        with pytest.raises(ConfigError, match="member"):
            trainer.train(
                np.zeros(ELEMS), iterations=2,
                events=(MembershipEvent("crash", 7, 1),),
            )

    def test_out_of_range_gpu_rejected(self):
        trainer = make_trainer(make_gradient_fn())
        with pytest.raises(ConfigError, match="not in"):
            trainer.train(
                np.zeros(ELEMS), iterations=2,
                events=(MembershipEvent("crash", 11, 1),),
            )

    def test_join_target_must_not_be_member(self):
        trainer = make_trainer(make_gradient_fn())
        with pytest.raises(ConfigError, match="already"):
            trainer.train(
                np.zeros(ELEMS), iterations=2,
                events=(MembershipEvent("join", 2, 1),),
            )

    def test_same_iteration_events_apply_in_kind_order(self):
        # crash < leave < join at the same iteration, deterministically:
        # gpu 2 leaves and immediately rejoins, so the member set is
        # unchanged but both boundaries are recorded in order.
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(gradient_fn)
        w0 = np.random.default_rng(9).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(
                MembershipEvent("join", 2, 1),
                MembershipEvent("leave", 2, 1),
            ),
        )
        assert [r.event.kind for r in report.records] == ["leave", "join"]
        assert report.members == tuple(range(8))
        assert_bit_exact(trainer, report, gradient_fn, w0, 3)


class TestQuietRun:
    def test_no_events_matches_reference(self):
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(gradient_fn)
        w0 = np.random.default_rng(1).normal(size=ELEMS)
        report = trainer.train(w0.copy(), iterations=2)
        assert report.members == tuple(range(8))
        assert len(report.segments) == 1
        assert_bit_exact(trainer, report, gradient_fn, w0, 2)


def record_verified_plans(monkeypatch) -> list:
    """Every plan ``plan_check_for`` hands the verifier, in call order."""
    verified = []

    def recording(plan, *args, **kwargs):
        verified.append(plan)
        return verify_plan(plan, *args, **kwargs)

    monkeypatch.setattr(elastic_mod, "verify_plan", recording)
    return verified


#: The healthy DGX-1 member set and each of its eight 7-GPU survivor sets.
MEMBER_SETS = [frozenset(range(8))] + [
    frozenset(g for g in range(8) if g != dead) for dead in range(8)
]


@pytest.fixture(scope="module")
def verified_member_sets():
    """One trainer's embedding and verified plan for every member set in
    :data:`MEMBER_SETS` (the search memo makes the nine gates cheap)."""
    trainer = make_trainer(make_gradient_fn())
    plans = {}
    with pytest.MonkeyPatch.context() as patch:
        verified = record_verified_plans(patch)
        for members in MEMBER_SETS:
            trainer.plan_check_for(members)
            plans[members] = verified[-1]
    return trainer, plans


class TestVerifiedPlanRuns:
    """Every span interprets the plan its member set's gate verified, and
    that plan sums in the tree order the serial reference replays."""

    @pytest.mark.parametrize(
        "members", MEMBER_SETS, ids=["healthy"] + [
            f"without{dead}" for dead in range(8)
        ],
    )
    def test_verified_plan_sums_in_tree_order(
        self, verified_member_sets, members
    ):
        trainer, plans = verified_member_sets
        embedding = trainer.embedding_for(members)
        assert not embedding.synthesized
        rng = np.random.default_rng(len(members) * 10 + min(members))
        grads = [rng.normal(size=ELEMS) for _ in range(len(members))]
        by_plan = plan_reduce_order(plans[members], total_elems=ELEMS)(
            [g.copy() for g in grads]
        )
        by_tree = tree_reduce_order(embedding.trees, trainer.layout)(
            [g.copy() for g in grads]
        )
        assert by_plan.tobytes() == by_tree.tobytes()

    @pytest.mark.parametrize(
        "members", MEMBER_SETS, ids=["healthy"] + [
            f"without{dead}" for dead in range(8)
        ],
    )
    def test_des_oracle_accepts_verified_plan(
        self, verified_member_sets, members
    ):
        """The gate's static ordering proof and the DES-side oracle
        agree on every plan a span runs."""
        from repro.plan.lowering import simulate_plan
        from repro.sim.oracle import check_plan_ordering

        trainer, plans = verified_member_sets
        outcome = simulate_plan(
            plans[members], topo=trainer.embedding_for(members).topology
        )
        report = check_plan_ordering(outcome.plan, outcome.dag, outcome.sim)
        assert report.ok, report.describe()

    def test_every_span_interprets_the_verified_plan(self, monkeypatch):
        verified = record_verified_plans(monkeypatch)
        interpreted = []
        reports = []

        class Recording(PlanInterpreter):
            def __init__(self, plan, **kwargs):
                interpreted.append(plan)
                reports.append(kwargs.get("report"))
                super().__init__(plan, **kwargs)

        monkeypatch.setattr(elastic_mod, "PlanInterpreter", Recording)
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(gradient_fn)
        w0 = np.random.default_rng(9).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(
                MembershipEvent("crash", 3, 1),
                MembershipEvent("join", 3, 2),
            ),
        )
        assert report.dead_gpus == (3,)
        # Gates: all eight GPUs, then the seven survivors (the rejoin
        # reuses the memoized healthy check).  Spans: quiet and armed on
        # eight, the redo on seven, the tail on eight again.
        full, seven = verified
        assert [id(p) for p in interpreted] == [
            id(full), id(full), id(seven), id(full)
        ]
        # Each span reuses its gate's report: no plan is verified twice.
        assert all(r is not None and r.ok for r in reports)
        assert reports[0] is reports[1] is reports[3]
        assert_bit_exact(trainer, report, gradient_fn, w0, 3)


class TestLeaveJoin:
    def test_leave_reembeds_and_stays_bit_exact(self):
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(gradient_fn)
        w0 = np.random.default_rng(2).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(MembershipEvent("leave", 5, 1),),
        )
        assert report.members == (0, 1, 2, 3, 4, 6, 7)
        assert [len(s[1].survivors) for s in report.segments] == [8, 7]
        assert all(r.plan_check.verified for r in report.records)
        assert_bit_exact(trainer, report, gradient_fn, w0, 3)

    def test_join_from_degraded_start(self):
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(
            gradient_fn, initial_members=(0, 1, 2, 4, 5, 6, 7)
        )
        w0 = np.random.default_rng(3).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(MembershipEvent("join", 3, 2),),
        )
        assert report.members == tuple(range(8))
        assert [len(s[1].survivors) for s in report.segments] == [7, 8]
        assert_bit_exact(trainer, report, gradient_fn, w0, 3)

    def test_membership_floor_enforced(self):
        trainer = make_trainer(
            make_gradient_fn(), initial_members=(0, 1)
        )
        with pytest.raises(ConfigError, match="2"):
            trainer.train(
                np.zeros(ELEMS), iterations=2,
                events=(MembershipEvent("leave", 1, 1),),
            )


class TestCrashRecovery:
    def test_crash_reembeds_bit_exact(self):
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(gradient_fn)
        w0 = np.random.default_rng(4).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(MembershipEvent("crash", 3, 1),),
        )
        assert report.members == (0, 1, 2, 4, 5, 6, 7)
        record = report.records[0]
        assert record.dead_detected == (3,)
        assert record.decision is not None
        assert record.restored_generation == -1
        assert_bit_exact(trainer, report, gradient_fn, w0, 3)

    def test_crash_restore_join_cascade(self):
        """The acceptance scenario: crash → restore from a committed
        generation → rejoin to the full 8 — three ownership segments,
        bit-exact end to end (runs under --fuzz-schedules too)."""
        gradient_fn = make_gradient_fn(seed=9)
        checkpointer = Checkpointer(MemoryBackend())
        trainer = make_trainer(
            gradient_fn,
            policy=RecoveryPolicy(mode=RESTART),
            checkpointer=checkpointer,
            checkpoint_every=2,
        )
        w0 = np.random.default_rng(5).normal(size=ELEMS)
        iterations = 8
        report = trainer.train(
            w0.copy(), iterations=iterations,
            events=(
                MembershipEvent("crash", 3, 5),
                MembershipEvent("join", 3, 6),
            ),
        )
        crash, join = report.records
        # The crash restored a committed generation and redid the lost
        # iterations on the 7 survivors.
        assert crash.restored_generation >= 0
        assert crash.resumed_from == 4
        assert join.resumed_from == 6
        assert [s[0] for s in report.segments] == [0, 4, 6]
        assert [len(s[1].survivors) for s in report.segments] == [8, 7, 8]
        assert all(r.plan_check.verified for r in report.records)
        assert report.checkpoint_counters["loads"] >= 1
        assert any(
            line.startswith("restore:")
            and line.endswith("iterations 4..4 will be redone on the "
                              "survivors")
            for line in report.timeline
        ), report.timeline
        # weight_checksums stays consistent through the truncation.
        assert len(report.weight_checksums) == iterations
        assert_bit_exact(trainer, report, gradient_fn, w0, iterations)

    def test_restore_unavailable_falls_back_to_live_weights(self):
        # RESTART policy but no checkpointer: the run must still finish
        # bit-exact, continuing from the last consistent weights.
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(
            gradient_fn, policy=RecoveryPolicy(mode=RESTART)
        )
        w0 = np.random.default_rng(6).normal(size=ELEMS)
        report = trainer.train(
            w0.copy(), iterations=3,
            events=(MembershipEvent("crash", 2, 1),),
        )
        assert report.records[0].restored_generation == -1
        assert_bit_exact(trainer, report, gradient_fn, w0, 3)


class TestCheckpointIntegration:
    def test_periodic_commits(self):
        checkpointer = Checkpointer(MemoryBackend())
        trainer = make_trainer(
            make_gradient_fn(), checkpointer=checkpointer,
            checkpoint_every=2,
        )
        report = trainer.train(np.zeros(ELEMS), iterations=5)
        assert report.checkpoint_counters["commits"] == 2
        state, _ = checkpointer.load_latest()
        assert state.iteration == 4
        assert payload_checksum(state.weights) == report.weight_checksums[3]

    def test_save_failure_is_best_effort(self):
        # A checkpointer whose storage always fails must not sink the
        # run — the failure lands in the timeline instead.
        plan = FaultPlan(storage_faults=(StorageFault(fail_prob=0.97),))
        checkpointer = Checkpointer(
            FaultyBackend(MemoryBackend(), plan), backoff=0.0
        )
        gradient_fn = make_gradient_fn()
        trainer = make_trainer(
            gradient_fn, checkpointer=checkpointer, checkpoint_every=1,
        )
        w0 = np.random.default_rng(7).normal(size=ELEMS)
        report = trainer.train(w0.copy(), iterations=2)
        assert any("checkpoint" in line and "abandoned" in line
                   for line in report.timeline)
        assert_bit_exact(trainer, report, gradient_fn, w0, 2)


class TestStalenessAwarePolicy:
    def test_staleness_charges_lost_iterations(self):
        policy = RecoveryPolicy(mode="cost", restart_overhead=1e-3)
        common = dict(
            nnodes_healthy=8, nnodes_degraded=7, nbytes=64 * 2**20,
            detours=1, conflicts=1, remaining_iterations=50,
        )
        fresh = policy.decide(**common)
        stale = policy.decide(
            **common, checkpoint_iteration=10, current_iteration=500
        )
        assert stale.restart_cost > fresh.restart_cost

    def test_staleness_kwargs_must_come_together(self):
        policy = RecoveryPolicy()
        with pytest.raises(ConfigError, match="together"):
            policy.decide(
                nnodes_healthy=8, nnodes_degraded=7, nbytes=1e6,
                detours=0, conflicts=0, remaining_iterations=10,
                checkpoint_iteration=3,
            )

    def test_stale_checkpoint_can_flip_restart_to_reembed(self):
        policy = RecoveryPolicy(mode="cost", restart_overhead=0.0)
        common = dict(
            nnodes_healthy=8, nnodes_degraded=7, nbytes=256 * 2**20,
            detours=2, conflicts=2, remaining_iterations=1,
        )
        fresh = policy.decide(**common)
        stale = policy.decide(
            **common, checkpoint_iteration=0, current_iteration=10_000
        )
        assert fresh.action == "restart"
        assert stale.action == "reembed"


class TestSerialReference:
    def test_segments_must_start_at_zero(self):
        trainer = make_trainer(make_gradient_fn())
        report = trainer.train(np.zeros(ELEMS), iterations=1)
        (start, emb, assign), = report.segments
        with pytest.raises(ConfigError, match="0"):
            elastic_serial_reference(
                make_network(), make_gradient_fn(), np.zeros(ELEMS),
                segments=[(1, emb, assign)],
                layout=trainer.layout,
                iterations=2,
            )


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20))
def test_elastic_soak(seed):
    """≥20 seeded membership traces (crash + join at seed-drawn
    iterations, seed-drawn victims), every one bit-exact."""
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(0, 8))
    gradient_fn = make_gradient_fn(seed=seed)
    trainer = make_trainer(
        gradient_fn,
        policy=RecoveryPolicy(mode=RESTART if seed % 2 else REEMBED),
        checkpointer=Checkpointer(MemoryBackend()),
        checkpoint_every=2,
    )
    iterations = 6
    # Implicit placements draw sorted distinct iterations in token
    # order, so the crash always precedes the rejoin.
    events = parse_events(
        f"crash:{victim},join:{victim}", iterations=iterations, seed=seed
    )
    w0 = rng.normal(size=ELEMS)
    report = trainer.train(w0.copy(), iterations=iterations, events=events)
    assert all(r.plan_check.verified for r in report.records)
    assert_bit_exact(trainer, report, gradient_fn, w0, iterations)
