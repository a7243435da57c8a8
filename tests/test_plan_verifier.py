"""Tests for the static plan verifier: mutated plans are rejected with
diagnostics naming the offending op."""

import json

import pytest

from repro.errors import PlanVerificationError
from repro.plan import (
    RECV,
    REDUCE,
    SEND,
    Plan,
    build_double_tree_plan,
    build_plan,
    build_tree_plan,
    compile_plan,
    match_wires,
    verify_plan,
)
from repro.sim.dag import Phase
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router

N = 4096.0


def drop_op(plan, op_id):
    """Remove one op, re-densifying ids and dropping dangling deps."""
    out = plan.derive()
    idmap = {}
    for i in range(len(plan)):
        if i != op_id:
            deps = [idmap[d] for d in plan.deps_of(i) if d in idmap]
            idmap[i] = out.add_from(plan, i, deps)
    return out


def with_deps(plan, deps):
    """A copy of ``plan`` whose op ``i`` depends on ``deps[i]`` when
    given, on its own deps otherwise."""
    out = plan.derive()
    for i in range(len(plan)):
        out.add_from(plan, i, deps.get(i, plan.deps_of(i)))
    return out


def errors_of(plan, **kwargs):
    report = verify_plan(plan, raise_on_error=False, **kwargs)
    assert not report.ok
    return report.errors


class TestMutationRejection:
    def test_dropped_reduce(self):
        plan = build_tree_plan(8, N, nchunks=2)
        victim = next(op for op in plan.ops if op.kind == REDUCE)
        mutated = drop_op(plan, victim.op_id)
        errors = errors_of(mutated)
        # The unmatched partner send is named in the diagnostic.
        assert any("unmatched op" in e for e in errors)

    def test_dropped_reduce_raises_by_default(self):
        plan = build_tree_plan(8, N, nchunks=2)
        victim = next(op for op in plan.ops if op.kind == REDUCE)
        with pytest.raises(PlanVerificationError) as exc:
            verify_plan(drop_op(plan, victim.op_id))
        assert exc.value.errors

    def test_duplicated_broadcast(self):
        plan = build_tree_plan(8, N, nchunks=2)
        send = next(
            op for op in plan.ops
            if op.kind == SEND and op.phase == Phase.BROADCAST
        )
        recv_id = match_wires(plan).partner[send.op_id]
        mutated = plan.copy()
        mutated.add_from(plan, send.op_id, (send.op_id,))
        mutated.add_from(plan, recv_id, (recv_id,))
        errors = errors_of(mutated)
        assert any("duplicate broadcast" in e for e in errors)
        # The diagnostic names the second delivery op.
        assert any(f"op {len(mutated.ops) - 1}" in e for e in errors)

    def test_duplicate_reduction(self):
        plan = build_tree_plan(8, N, nchunks=2)
        red = next(op for op in plan.ops if op.kind == REDUCE)
        send_id = match_wires(plan).partner[red.op_id]
        mutated = plan.copy()
        mutated.add_from(plan, send_id, (send_id,))
        mutated.add_from(plan, red.op_id, (red.op_id,))
        errors = errors_of(mutated)
        assert any("duplicate reduction" in e for e in errors)

    def test_nonexistent_physical_link(self):
        topo = dgx1_topology()
        router = Router(topo, detour_preference=DETOUR_NODES)
        plan = build_double_tree_plan(
            8, N, nchunks=2, trees=dgx1_trees(), overlapped=True
        )
        legal, _ = compile_plan(plan, topo, router=router)
        assert verify_plan(legal, topo=topo).ok
        sid = next(
            op.op_id for op in legal.ops
            if op.kind == SEND and op.rank == 0 and op.peer in (1, 2, 3)
        )
        mutated = legal.derive()
        for i in range(len(legal)):
            mutated.add_from(
                legal, i, legal.deps_of(i), peer=7 if i == sid else None
            )
        errors = errors_of(mutated, topo=topo)
        assert any("no physical link" in e for e in errors)
        assert any(f"op {sid}" in e for e in errors)

    def test_unlegalized_detour_edge_flagged(self):
        # The dgx1 tree pair crosses 2<->4 which has no NVLink; the raw
        # plan must fail the physical check until legalized.
        topo = dgx1_topology()
        plan = build_double_tree_plan(
            8, N, nchunks=2, trees=dgx1_trees(), overlapped=True
        )
        errors = errors_of(plan, topo=topo)
        assert any("no physical link 2->4" in e for e in errors)

    def test_dependency_cycle(self):
        # Two ranks that each RECV before their SEND: the implied
        # send->recv edges cross and the combined graph deadlocks.
        from repro.plan import RECV, Plan
        from repro.sim.dag import Phase as P

        plan = Plan(
            algorithm="test",
            nnodes=2,
            nbytes=2.0,
            chunk_sizes=[1.0, 1.0],
            chunk_offsets=[0.0, 1.0],
        )
        plan.add(rank=0, kind=RECV, chunk=0, peer=1, nbytes=1.0,
                 phase=P.BROADCAST)
        plan.add(rank=0, kind=SEND, chunk=1, peer=1, nbytes=1.0,
                 phase=P.BROADCAST)
        plan.add(rank=1, kind=RECV, chunk=1, peer=0, nbytes=1.0,
                 phase=P.BROADCAST)
        plan.add(rank=1, kind=SEND, chunk=0, peer=0, nbytes=1.0,
                 phase=P.BROADCAST)
        errors = errors_of(plan)
        assert any("cycle" in e or "deadlock" in e for e in errors)

    def test_backward_dep_rejected(self):
        plan = build_tree_plan(4, N, nchunks=1)
        mutated = with_deps(plan, {3: (3,)})
        errors = errors_of(mutated)
        assert any("op 3" in e for e in errors)


class TestWirePairing:
    def test_every_transfer_paired(self):
        plan = build_double_tree_plan(8, N, nchunks=4, overlapped=True)
        pairing = match_wires(plan)
        assert not pairing.errors
        transfers = [op for op in plan.ops if op.is_transfer]
        assert set(pairing.partner) == {op.op_id for op in transfers}

    def test_partner_is_involution(self):
        plan = build_tree_plan(8, N, nchunks=2)
        pairing = match_wires(plan)
        for a, b in pairing.partner.items():
            assert pairing.partner[b] == a


def _two_transfers_on_one_wire(sender_tbs, receiver_tbs):
    """Rank 0 sends chunks 0 and 1 to rank 1 on one wire, the k-th
    transfer from ``sender_tbs[k]`` into ``receiver_tbs[k]``."""
    from repro.plan import RECV, Plan

    plan = Plan(
        algorithm="test", nnodes=2, nbytes=2.0,
        chunk_sizes=[1.0, 1.0], chunk_offsets=[0.0, 1.0],
    )
    for chunk, (s_tb, r_tb) in enumerate(zip(sender_tbs, receiver_tbs)):
        common = dict(chunk=chunk, nbytes=1.0, phase=Phase.BROADCAST)
        plan.add(rank=0, kind=SEND, peer=1, tb=s_tb, **common)
        plan.add(rank=1, kind=RECV, peer=0, tb=r_tb, **common)
    return plan


def tree3_plan(*, stray_reduce=False):
    """Rank 0 reduces chunk 0 from ranks 1 and 2, then broadcasts it.

    With ``stray_reduce``, rank 1 also sends its chunk to rank 2 in the
    reduce phase, where a relay leg (which touches no gradient slot)
    receives it — after rank 2's own reduce send, so no broadcast waits
    for it.  That breaks reduce-before-broadcast (PLAN011) and nothing
    else: the dataflow stays exactly-once and every slot access stays
    ordered.
    """
    from repro.plan import RECV, Plan

    plan = Plan(
        algorithm="tree3", nnodes=3, nbytes=8.0,
        chunk_sizes=[8.0], chunk_offsets=[0.0],
    )
    reduce = dict(chunk=0, nbytes=8.0, phase=Phase.REDUCE)
    bcast = dict(chunk=0, nbytes=8.0, phase=Phase.BROADCAST)
    stray = dict(flow=(1, 0), **reduce)
    plan.add(rank=1, kind=SEND, peer=0, **reduce)
    if stray_reduce:
        plan.add(rank=1, kind=SEND, peer=2, **stray)
    plan.add(rank=0, kind=REDUCE, peer=1, **reduce)
    plan.add(rank=2, kind=SEND, peer=0, **reduce)
    if stray_reduce:
        plan.add(rank=2, kind=RECV, peer=1, **stray)
    plan.add(rank=0, kind=REDUCE, peer=2, **reduce)
    for child in (1, 2):
        plan.add(rank=0, kind=SEND, peer=child, **bcast)
        plan.add(rank=child, kind=RECV, peer=0, **bcast)
    return plan


def triangle():
    from repro.topology.base import PhysicalTopology

    topo = PhysicalTopology(nnodes=3, name="triangle")
    for u, v in ((0, 1), (0, 2), (1, 2)):
        topo.add_link(u, v, alpha=1e-6, beta=1e-9)
    return topo


class TestOrderingRules:
    """The rules that make the verifier the only static ordering check:
    PLAN002's one-sender, one-receiver thread block rule (which makes
    consecutive transfers on a wire program-ordered) and PLAN011."""

    @pytest.mark.parametrize("role, senders, receivers", [
        ("sender", (0, 1), (0, 0)),
        ("receiver", (0, 0), (0, 1)),
    ])
    def test_two_thread_blocks_on_one_wire_are_racy(
        self, role, senders, receivers
    ):
        plan = _two_transfers_on_one_wire(senders, receivers)
        report = verify_plan(plan, raise_on_error=False)
        racy = [
            d for d in report.diagnostics
            if "FIFO order is racy" in d.message
        ]
        assert [d.code for d in racy] == ["PLAN002"]
        assert f"2 {role} thread blocks" in racy[0].message
        # No pairing, so no happens-before graph to reason over.
        assert report.order == [] and report.reach == []

    def test_one_thread_block_per_side_is_fifo(self):
        plan = _two_transfers_on_one_wire((0, 0), (0, 0))
        report = verify_plan(plan, raise_on_error=False)
        assert not any(d.code == "PLAN002" for d in report.diagnostics)

    def test_clean_tree3_verifies(self):
        assert verify_plan(tree3_plan(), topo=triangle()).ok

    def test_stray_reduce_breaks_only_reduce_before_broadcast(self):
        report = verify_plan(
            tree3_plan(stray_reduce=True), topo=triangle(),
            raise_on_error=False,
        )
        assert {d.code for d in report.diagnostics} == {"PLAN011"}
        assert len(report.diagnostics) == 2  # one per broadcast send
        assert all(
            "is not ordered after reduce" in d.message
            for d in report.diagnostics
        )

    def test_gate_refuses_it_before_the_des(self, monkeypatch):
        import repro.synth.search as search

        def forbidden(*args, **kwargs):
            raise AssertionError("the gate simulated a refused plan")

        monkeypatch.setattr(search, "simulate_plan", forbidden)
        topo = triangle()
        assert search.compile_candidate(tree3_plan(), topo) is not None
        raw = tree3_plan(stray_reduce=True)
        compile_plan(raw, topo)  # compiles: only the verifier refuses it
        assert search.compile_candidate(raw, topo) is None
        assert search.gate_candidate(raw, topo, strategy="tree3") is None

    def test_plan_verify_file_names_the_rule(self, tmp_path, capsys):
        from repro.cli import main

        file = tmp_path / "stray.json"
        file.write_text(tree3_plan(stray_reduce=True).to_json())
        assert main(["plan", "verify", str(file)]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "PLAN011 (reduce-before-broadcast)" in out


class TestNonFinitePayload:
    """A loaded plan whose transfers carry NaN or Infinity bytes is
    structurally invalid (it would simulate to an infinite makespan)."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_rejected_as_plan001(self, value, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.plan import Plan, build_plan

        data = build_plan("ring", 4, 1e6).to_json_dict()
        for op in data["ops"]:
            if op["kind"] != "copy":
                op["nbytes"] = value
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        plan = Plan.from_json(path.read_text())

        report = verify_plan(plan, raise_on_error=False)
        assert not report.ok
        assert {d.code for d in report.diagnostics} == {"PLAN001"}
        assert all("non-finite payload" in e for e in report.errors)
        assert cli_main(["plan", "verify", str(path)]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out


def two_chunk_tree(*, broadcast_order=(0, 1)):
    """Rank 1 reduces two chunks into root 0, which broadcasts them back
    in ``broadcast_order`` on one wire."""
    plan = Plan(
        algorithm="enqueue_order",
        nnodes=2,
        nbytes=16.0,
        chunk_sizes=(8.0, 8.0),
        chunk_offsets=(0.0, 8.0),
    )
    up = dict(nbytes=8.0, tree=0, phase=Phase.REDUCE)
    down = dict(nbytes=8.0, tree=0, phase=Phase.BROADCAST)
    plan.add(rank=1, kind=SEND, chunk=0, peer=0, tb="up", **up)
    plan.add(rank=1, kind=SEND, chunk=1, peer=0, tb="up", **up)
    reduced = [
        plan.add(rank=0, kind=REDUCE, chunk=c, peer=1, tb="up", **up)
        for c in (0, 1)
    ]
    for c in broadcast_order:
        plan.add(
            rank=0, kind=SEND, chunk=c, peer=1, tb="down",
            deps=(reduced[c],), **down,
        )
    for c in broadcast_order:
        plan.add(rank=1, kind=RECV, chunk=c, peer=0, tb="down", **down)
    return plan


class TestEnqueueOrder:
    def test_in_order_finals_are_clean(self):
        assert verify_plan(two_chunk_tree()).ok

    def test_out_of_order_finals_get_plan013(self):
        report = verify_plan(
            two_chunk_tree(broadcast_order=(1, 0)), raise_on_error=False
        )
        assert [d.code for d in report.diagnostics] == ["PLAN013"]
        assert "rank 1: chunk 1 may become final" in report.errors[0]

    @pytest.mark.parametrize(
        "algorithm", ["ring", "tree", "double_tree", "halving_doubling"]
    )
    def test_builtin_plans_keep_the_order(self, algorithm):
        kwargs = {"nchunks": 8} if "tree" in algorithm else {}
        report = verify_plan(build_plan(algorithm, 8, 1e6, **kwargs))
        assert "PLAN013" not in {d.code for d in report.diagnostics}
