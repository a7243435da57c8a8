"""Static verification of collective plans.

The verifier proves, without executing anything, that a plan is a
correct AllReduce.  It is the only static check of a plan's
happens-before graph (explicit deps ∪ per-thread-block program order ∪
send→recv pairing), which it builds once:

1. **Structure** (``PLAN001``) — dense op ids, backward deps, valid
   kinds/peers/chunks/payloads.
2. **Wire matching** (``PLAN002``) — on every FIFO wire ``(src, dst,
   tree, phase, flow)`` the k-th SEND pairs with the k-th RECV/REDUCE
   and both carry the same chunks and bytes; each wire has a single
   sending and a single receiving thread block (otherwise FIFO order is
   racy).  Because a thread block runs its ops in op-id order, this
   also orders consecutive transfers on every wire: FIFO per wire needs
   no separate check.
3. **Deadlock freedom** (``PLAN003``) — the happens-before graph is
   acyclic.  Sends never block (the interpreter sizes each wire to its
   total send count), so acyclicity of this graph is exactly deadlock
   freedom.
4. **Dataflow** (``PLAN004``) — replaying ops in a topological order of
   that graph, every rank must end holding each chunk's full reduction:
   every contributor reduced exactly once (no drops, no double
   counting) and every broadcast an overwrite of a fully-reduced copy
   delivered exactly once.
5. **Ordering** (``PLAN005``, ``PLAN011``) — from the graph's ancestor
   bitsets: unordered accesses to the same (rank, chunk) slot are races
   (``PLAN005``), and every broadcast-like SEND of a chunk must come
   after every reduce-like transfer of that chunk completes
   (``PLAN011``).  The DES merges a SEND and its partner into one
   transfer that gates every successor, so a plan passing these obeys
   the sim ordering oracle on every dependence-respecting schedule.
6. **Physical legality** (``PLAN006``, with a topology) — every NVLink
   hop must ride an existing link and an existing lane.

The report keeps the pairing, the topological order and the ancestor
bitsets.  :func:`prove_send_aliasing` reads them to decide, for every
SEND, whether the receiver may read the sender's memory in place (a
static write-after-read check); a SEND whose source chunk is rewritten
before its final consumer reads it is reported as a note (``PLAN012``)
and its wire is staged.  The check is advisory, so :func:`verify_plan`
— the synthesis and recovery gate — does not run it.

Every diagnostic is a typed :class:`~repro.analyze.diagnostics.Diagnostic`
naming the offending op (``op 17 [send c3 2->4 t0]``) *and* its
provenance — the builder or pass that introduced the op — so a finding
on a compiled plan points at the phase that created the bad op, not
just the post-pass op id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analyze.diagnostics import Diagnostic, severity_of
from ..errors import PlanVerificationError
from ..sim.dag import Phase
from ..topology.base import PhysicalTopology
from .ir import COPY, RECV, REDUCE, SEND, OpKind, Plan, PlanOp

__all__ = [
    "BROADCAST_LIKE",
    "REDUCE_LIKE",
    "AliasProof",
    "WirePairing",
    "VerifyReport",
    "match_wires",
    "prove_send_aliasing",
    "verify_plan",
    "execution_order",
    "is_relay",
]

#: Phases that produce partial sums / fully reduced chunks, and phases
#: that may only move chunks already fully reduced.
REDUCE_LIKE = (Phase.REDUCE, Phase.REDUCE_SCATTER)
BROADCAST_LIKE = (Phase.BROADCAST, Phase.ALL_GATHER)


def is_relay(op: PlanOp) -> bool:
    """True for detour relay legs: transfers at an intermediate GPU.

    Relay ops forward through a staging buffer — they never touch the
    relay GPU's own gradient slot.
    """
    if op.flow is None:
        return False
    if op.kind == SEND:
        return op.rank != op.flow[0]
    if op.kind in (RECV, REDUCE):
        return op.rank != op.flow[1]
    return False


def _diag(code: str, message: str, op: PlanOp | None = None) -> Diagnostic:
    """A typed diagnostic, carrying the op's id/name/provenance."""
    return Diagnostic(
        code=code,
        message=message,
        severity=severity_of(code),
        op_id=op.op_id if op is not None else -1,
        op_name=op.name() if op is not None else "",
        origin=op.origin if op is not None else "",
    )


def render_diagnostic(d: Diagnostic) -> str:
    """The legacy error-string form: message plus provenance suffix."""
    if d.origin:
        return f"{d.message} [from {d.origin}]"
    return d.message


@dataclass
class WirePairing:
    """Send/recv pairing of one plan, shared with interpreter/lowering.

    Attributes:
        partner: op_id -> paired op_id (send <-> recv/reduce).
        wires: wire key -> (send op ids, recv op ids) in FIFO order.
        diagnostics: typed pairing findings (mismatched counts/payloads,
            racy multi-producer wires) — ``PLAN002``.
    """

    partner: dict[int, int] = field(default_factory=dict)
    wires: dict[tuple, tuple[list[int], list[int]]] = field(
        default_factory=dict
    )
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[str]:
        """Pairing diagnostics as plain strings (legacy API)."""
        return [render_diagnostic(d) for d in self.diagnostics]


def match_wires(plan: Plan) -> WirePairing:
    """Pair every SEND with its RECV/REDUCE by FIFO order per wire."""
    pairing = WirePairing()
    sends: dict[tuple, list[int]] = {}
    recvs: dict[tuple, list[int]] = {}
    send_tbs: dict[tuple, set] = {}
    recv_tbs: dict[tuple, set] = {}
    for op in plan.ops:
        if not op.is_transfer:
            continue
        wire = op.wire_key()
        if op.kind == SEND:
            sends.setdefault(wire, []).append(op.op_id)
            send_tbs.setdefault(wire, set()).add((op.rank, op.tb))
        else:
            recvs.setdefault(wire, []).append(op.op_id)
            recv_tbs.setdefault(wire, set()).add((op.rank, op.tb))

    for wire in sorted(set(sends) | set(recvs), key=repr):
        s_ids = sends.get(wire, [])
        r_ids = recvs.get(wire, [])
        pairing.wires[wire] = (s_ids, r_ids)
        if len(s_ids) != len(r_ids):
            longer = s_ids if len(s_ids) > len(r_ids) else r_ids
            culprit = plan.op(longer[min(len(s_ids), len(r_ids))])
            pairing.diagnostics.append(_diag(
                "PLAN002",
                f"wire {wire}: {len(s_ids)} send(s) vs {len(r_ids)} "
                f"recv(s); unmatched {culprit.name()}",
                culprit,
            ))
            continue
        for tbs, role in ((send_tbs.get(wire), "sender"),
                          (recv_tbs.get(wire), "receiver")):
            if tbs and len(tbs) > 1:
                first = plan.op(s_ids[0] if role == "sender" else r_ids[0])
                pairing.diagnostics.append(_diag(
                    "PLAN002",
                    f"wire {wire}: {len(tbs)} {role} thread blocks "
                    f"{sorted(tbs, key=repr)} — FIFO order is racy; "
                    f"first {first.name()}",
                    first,
                ))
        for s_id, r_id in zip(s_ids, r_ids):
            s_op, r_op = plan.op(s_id), plan.op(r_id)
            if s_op.chunks_carried() != r_op.chunks_carried():
                pairing.diagnostics.append(_diag(
                    "PLAN002",
                    f"wire {wire}: {s_op.name()} carries "
                    f"{s_op.chunks_carried()} but paired {r_op.name()} "
                    f"expects {r_op.chunks_carried()}",
                    s_op,
                ))
                continue
            if abs(s_op.nbytes - r_op.nbytes) > 1e-9 * max(1.0, s_op.nbytes):
                pairing.diagnostics.append(_diag(
                    "PLAN002",
                    f"wire {wire}: payload mismatch between {s_op.name()} "
                    f"({s_op.nbytes}B) and {r_op.name()} ({r_op.nbytes}B)",
                    s_op,
                ))
            pairing.partner[s_id] = r_id
            pairing.partner[r_id] = s_id
    return pairing


@dataclass
class VerifyReport:
    """Outcome of :func:`verify_plan`.

    Attributes:
        ok: no errors found.
        errors: every diagnostic as a plain string, each naming an op
            (legacy API; ``diagnostics`` carries the typed form).
        pairing: the send/recv pairing (reusable by interpreter and
            lowering).
        order: a combined-graph topological order of op ids (execution
            order certificate), empty when a cycle was found.
        diagnostics: typed findings with code/severity/op provenance.
        reach: per op, the bitset of its happens-before ancestors
            (inclusive; see :func:`_ancestors`), empty whenever
            ``order`` is.
    """

    ok: bool
    errors: list[str]
    pairing: WirePairing
    order: list[int] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    reach: list[int] = field(default_factory=list)


def _structural_diags(plan: Plan) -> list[Diagnostic]:
    diags = []
    for i, op in enumerate(plan.ops):
        if op.op_id != i:
            diags.append(_diag(
                "PLAN001",
                f"{op.name()}: op_id {op.op_id} at position {i} "
                "(ids must be dense and ordered)",
                op,
            ))
        if op.kind not in OpKind.ALL:
            diags.append(_diag(
                "PLAN001", f"{op.name()}: unknown kind {op.kind!r}", op
            ))
            continue
        if not (0 <= op.rank < plan.nnodes):
            diags.append(_diag(
                "PLAN001", f"{op.name()}: rank {op.rank} out of range", op
            ))
        if op.is_transfer:
            if not (0 <= op.peer < plan.nnodes):
                diags.append(_diag(
                    "PLAN001", f"{op.name()}: peer {op.peer} out of range",
                    op,
                ))
            elif op.peer == op.rank:
                diags.append(_diag(
                    "PLAN001", f"{op.name()}: self-transfer", op
                ))
            if not op.chunks_carried():
                diags.append(_diag(
                    "PLAN001", f"{op.name()}: transfer carries no chunks",
                    op,
                ))
            if op.nbytes <= 0:
                diags.append(_diag(
                    "PLAN001", f"{op.name()}: non-positive payload", op
                ))
        for c in op.chunks_carried():
            if not (0 <= c < plan.nchunks):
                diags.append(_diag(
                    "PLAN001", f"{op.name()}: chunk {c} out of range", op
                ))
        for d in op.deps:
            if not (0 <= d < len(plan.ops)):
                diags.append(_diag(
                    "PLAN001", f"{op.name()}: dep {d} out of range", op
                ))
            elif d >= op.op_id:
                diags.append(_diag(
                    "PLAN001",
                    f"{op.name()}: forward/self dep on op {d} "
                    "(deps must reference earlier ops)",
                    op,
                ))
    return diags


def _combined_edges(plan: Plan, pairing: WirePairing) -> list[set[int]]:
    """Predecessor sets under deps ∪ program order ∪ send→recv pairing."""
    preds: list[set[int]] = [set() for _ in plan.ops]
    for op in plan.ops:
        preds[op.op_id].update(d for d in op.deps if 0 <= d < len(plan.ops))
    for prog in plan.programs().values():
        for prev, nxt in zip(prog, prog[1:]):
            preds[nxt.op_id].add(prev.op_id)
    for s_ids, r_ids in pairing.wires.values():
        for s_id, r_id in zip(s_ids, r_ids):
            preds[r_id].add(s_id)
    return preds


def _topo_order(
    plan: Plan, preds: list[set[int]]
) -> tuple[list[int], list[Diagnostic]]:
    n = len(plan.ops)
    indeg = [len(p) for p in preds]
    succs: list[list[int]] = [[] for _ in range(n)]
    for op_id, p in enumerate(preds):
        for d in p:
            succs[d].append(op_id)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    import heapq

    heapq.heapify(ready)
    while ready:
        op_id = heapq.heappop(ready)
        order.append(op_id)
        for s in succs[op_id]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) < n:
        stuck = [i for i in range(n) if indeg[i] > 0]
        first = plan.op(stuck[0])
        return [], [_diag(
            "PLAN003",
            f"dependency cycle (deadlock): {len(stuck)} op(s) can never "
            f"run, first {first.name()}",
            first,
        )]
    return order, []


def execution_order(
    plan: Plan, pairing: WirePairing | None = None
) -> list[int]:
    """A deterministic serial execution order for ``plan``.

    Topological order of the combined graph (deps ∪ per-thread-block
    program order ∪ send→recv pairing), smallest ready op id first —
    the same order :func:`verify_plan` replays for its dataflow check.
    Because PLAN005 race freedom makes every linearization of that
    graph touch each (rank, chunk) slot in the same sequence, replaying
    ops in this order is bit-identical to the threaded interpreter.

    Raises:
        PlanVerificationError: the combined graph has a cycle (the plan
            would deadlock; run :func:`verify_plan` for the full story).
    """
    if pairing is None:
        pairing = match_wires(plan)
    order, diags = _topo_order(plan, _combined_edges(plan, pairing))
    if diags:
        raise PlanVerificationError([render_diagnostic(d) for d in diags])
    return order


def _dataflow_diags(
    plan: Plan, pairing: WirePairing, order: list[int]
) -> list[Diagnostic]:
    """Replay the plan symbolically and check exactly-once semantics."""
    diags: list[Diagnostic] = []
    nnodes, nchunks = plan.nnodes, plan.nchunks
    # Per (rank, chunk): the multiset of original contributors held in
    # the local slot, as a dict rank -> count.  Every rank starts with
    # its own contribution for every chunk.
    slot: dict[tuple[int, int], dict[int, int]] = {
        (r, c): {r: 1} for r in range(nnodes) for c in range(nchunks)
    }
    # How often each (rank, chunk) slot was overwritten by a broadcast
    # after being fully reduced.
    deliveries: dict[tuple[int, int], int] = {}
    payload: dict[int, dict[int, dict[int, int]]] = {}  # send -> chunk -> ms
    last_writer: dict[tuple[int, int], PlanOp] = {}
    full = {r: 1 for r in range(nnodes)}

    # Relay legs forward through a staging register, not the slot.
    relay_reg: dict[tuple, dict[int, int]] = {}

    def _relay_key(op: PlanOp, c: int) -> tuple:
        return (op.rank, op.flow, op.tree, op.phase, c)

    for op_id in order:
        op = plan.op(op_id)
        if op.kind == SEND:
            if is_relay(op):
                staged: dict[int, dict[int, int]] = {}
                for c in op.chunks_carried():
                    key = _relay_key(op, c)
                    if key not in relay_reg:
                        diags.append(_diag(
                            "PLAN004",
                            f"{op.name()}: relay forwards chunk {c} "
                            "before receiving it",
                            op,
                        ))
                        staged[c] = {}
                    else:
                        staged[c] = dict(relay_reg[key])
                payload[op_id] = staged
                continue
            payload[op_id] = {
                c: dict(slot[(op.rank, c)]) for c in op.chunks_carried()
            }
        elif op.kind == REDUCE:
            s_id = pairing.partner.get(op_id)
            if s_id is None:
                continue
            for c in op.chunks_carried():
                incoming = payload.get(s_id, {}).get(c, {})
                local = slot[(op.rank, c)]
                for contributor, count in incoming.items():
                    local[contributor] = local.get(contributor, 0) + count
                    if local[contributor] > 1:
                        diags.append(_diag(
                            "PLAN004",
                            f"{op.name()}: rank {op.rank} reduces chunk "
                            f"{c} contribution of rank {contributor} "
                            f"twice (duplicate reduction)",
                            op,
                        ))
                last_writer[(op.rank, c)] = op
        elif op.kind == RECV:
            s_id = pairing.partner.get(op_id)
            if s_id is None:
                continue
            if is_relay(op):
                for c in op.chunks_carried():
                    relay_reg[_relay_key(op, c)] = dict(
                        payload.get(s_id, {}).get(c, {})
                    )
                continue
            for c in op.chunks_carried():
                incoming = payload.get(s_id, {}).get(c, {})
                slot[(op.rank, c)] = dict(incoming)
                last_writer[(op.rank, c)] = op
                if incoming == full:
                    deliveries[(op.rank, c)] = (
                        deliveries.get((op.rank, c), 0) + 1
                    )
                    if deliveries[(op.rank, c)] > 1:
                        diags.append(_diag(
                            "PLAN004",
                            f"{op.name()}: rank {op.rank} receives the "
                            f"reduced chunk {c} twice (duplicate "
                            f"broadcast)",
                            op,
                        ))

    for r in range(nnodes):
        for c in range(nchunks):
            held = slot[(r, c)]
            if held == full:
                continue
            missing = sorted(set(range(nnodes)) - set(
                k for k, v in held.items() if v >= 1
            ))
            extra = sorted(k for k, v in held.items() if v > 1)
            writer = last_writer.get((r, c))
            where = f" (last written by {writer.name()})" if writer else ""
            if missing:
                diags.append(_diag(
                    "PLAN004",
                    f"rank {r} chunk {c}: contributions from rank(s) "
                    f"{missing} never reduced in{where} (dropped reduce)",
                    writer,
                ))
            if extra:
                diags.append(_diag(
                    "PLAN004",
                    f"rank {r} chunk {c}: contributions from rank(s) "
                    f"{extra} counted more than once{where}",
                    writer,
                ))
            if not missing and not extra:
                diags.append(_diag(
                    "PLAN004",
                    f"rank {r} chunk {c}: final value is not the full "
                    f"reduction{where}",
                    writer,
                ))
    return diags


def _ancestors(preds: list[set[int]], order: list[int]) -> list[int]:
    """Per op, the bitset of its ancestors (inclusive) in the combined
    graph: bit ``a`` of ``reach[b]`` is set iff ``a`` happens-before
    ``b`` (or ``a == b``)."""
    reach = [0] * len(preds)
    for op_id in order:
        bits = 1 << op_id
        for d in preds[op_id]:
            bits |= reach[d]
        reach[op_id] = bits
    return reach


def _slot_accesses(
    plan: Plan,
) -> dict[tuple[int, int], list[tuple[int, bool]]]:
    """(rank, chunk) -> [(op id, writes)] for every op touching a
    gradient slot; relay legs and COPY markers touch none."""
    accesses: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for op in plan.ops:
        if op.kind == COPY or is_relay(op):
            continue
        writes = op.kind in (REDUCE, RECV)
        for c in op.chunks_carried():
            accesses.setdefault((op.rank, c), []).append((op.op_id, writes))
    return accesses


def _race_diags(plan: Plan, reach: list[int]) -> list[Diagnostic]:
    """Unordered write/write or read/write pairs on one (rank, chunk)."""

    def ordered(a: int, b: int) -> bool:
        return bool(reach[b] >> a & 1) or bool(reach[a] >> b & 1)

    diags = []
    for (rank, chunk), ops in _slot_accesses(plan).items():
        for i, (a, a_writes) in enumerate(ops):
            for b, b_writes in ops[i + 1:]:
                if not (a_writes or b_writes):
                    continue
                if not ordered(a, b):
                    diags.append(_diag(
                        "PLAN005",
                        f"race on rank {rank} chunk {chunk}: "
                        f"{plan.op(a).name()} and {plan.op(b).name()} "
                        "are unordered",
                        plan.op(a),
                    ))
    return diags


def _broadcast_diags(
    plan: Plan, pairing: WirePairing, reach: list[int]
) -> list[Diagnostic]:
    """Broadcast-like SENDs of a chunk not ordered after every
    reduce-like transfer of it completes (either endpoint of the reduce
    is enough: the DES merges both into one transfer)."""
    sends = [op for op in plan.ops if op.kind == SEND]
    reduces: dict[int, list[PlanOp]] = {}
    for op in sends:
        if op.phase in REDUCE_LIKE:
            for c in op.chunks_carried():
                reduces.setdefault(c, []).append(op)
    diags = []
    for b in sends:
        if b.phase not in BROADCAST_LIKE:
            continue
        for chunk in b.chunks_carried():
            for r in reduces.get(chunk, ()):
                done = 1 << r.op_id | 1 << pairing.partner[r.op_id]
                if not reach[b.op_id] & done:
                    diags.append(_diag(
                        "PLAN011",
                        f"chunk {chunk}: broadcast {b.name()} is not "
                        f"ordered after reduce {r.name()} completes — "
                        "the payload may not be the full sum",
                        b,
                    ))
    return diags


@dataclass(frozen=True)
class AliasProof:
    """Outcome of :func:`prove_send_aliasing`.

    Attributes:
        staged_sends: every SEND whose wire must stage its payload: the
            rejected SENDs and the relay legs forwarding their chunks
            (a relay forwards whatever its inbound SEND carried).
        diagnostics: one ``PLAN012`` note per rejected SEND.
    """

    staged_sends: frozenset[int]
    diagnostics: tuple[Diagnostic, ...]

    def aliases(self, send_ids) -> bool:
        """True when none of ``send_ids`` (one wire's SENDs) stages."""
        return self.staged_sends.isdisjoint(send_ids)


def _final_consumers(
    plan: Plan, pairing: WirePairing, order: list[int]
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Follow every chunk a non-relay SEND carries through its relay
    legs to the RECV/REDUCE that consumes it.

    Returns ``(consumer, origin)``: ``(send id, chunk) -> final consumer
    id`` for non-relay SENDs, and ``(relay send id, chunk) -> the
    non-relay SEND it forwards``.  Relays forward in the interpreter's
    stash order, keyed like :func:`~repro.plan.interpreter.plan_reduce_order`.
    """
    consumer: dict[tuple[int, int], int] = {}
    origin: dict[tuple[int, int], int] = {}
    stash: dict[tuple, int] = {}
    for op_id in order:
        op = plan.op(op_id)
        if op.kind == SEND:
            if is_relay(op):
                for c in op.chunks_carried():
                    key = (op.rank, op.flow, op.tree, op.phase, c)
                    if key in stash:
                        origin[(op_id, c)] = stash.pop(key)
            continue
        if op.kind not in (RECV, REDUCE):
            continue
        sender = pairing.partner.get(op_id)
        if sender is None:
            continue
        relay = is_relay(op)
        for c in op.chunks_carried():
            source = origin.get((sender, c), sender)
            if relay:
                stash[(op.rank, op.flow, op.tree, op.phase, c)] = source
            else:
                consumer[(source, c)] = op_id
    return consumer, origin


def prove_send_aliasing(plan: Plan, report: VerifyReport) -> AliasProof:
    """Static write-after-read check: may each SEND's wire alias the
    sender's gradient buffer instead of staging a copy?

    A non-relay SEND ``s`` reads rank ``r``'s chunk ``c``; let ``k`` be
    its final consumer (relay legs followed to the last RECV/REDUCE).
    The receiver may read ``(r, c)`` in place iff every write to
    ``(r, c)`` not ordered before ``s`` is ordered after ``k`` in the
    combined happens-before graph — then the bytes ``k`` reads are the
    bytes ``s`` sent.  Each rejected SEND gets a ``PLAN012`` note naming
    the write that would change its payload in flight.

    Args:
        plan: the plan to prove.
        report: ``plan``'s :func:`verify_plan` report, whose pairing,
            order and ancestor bitsets the proof reads.  The proof
            assumes a plan that passes; when the report has no graph
            (bad structure or pairing, or a cycle), every SEND is
            staged.
    """
    sends = [op.op_id for op in plan.ops if op.kind == SEND]
    if not report.reach:
        return AliasProof(frozenset(sends), ())
    pairing, order, reach = report.pairing, report.order, report.reach
    consumer, origin = _final_consumers(plan, pairing, order)
    writes: dict[tuple[int, int], list[int]] = {
        slot: [op_id for op_id, is_write in ops if is_write]
        for slot, ops in _slot_accesses(plan).items()
    }

    def rewrite(op: PlanOp) -> str | None:
        """Why ``op``'s payload may change in flight (None: it can't)."""
        for c in op.chunks_carried():
            k = consumer.get((op.op_id, c))
            if k is None:
                return f"chunk {c} never reaches a consumer"
            for w in writes.get((op.rank, c), ()):
                if not (reach[op.op_id] >> w & 1 or reach[w] >> k & 1):
                    return (
                        f"rank {op.rank} chunk {c} is rewritten by "
                        f"{plan.op(w).name()} before {plan.op(k).name()} "
                        "consumes it"
                    )
        return None

    staged: set[int] = set()
    diags: list[Diagnostic] = []
    for s_id in sends:
        op = plan.op(s_id)
        reason = None if is_relay(op) else rewrite(op)
        if reason is not None:
            staged.add(s_id)
            diags.append(_diag(
                "PLAN012",
                f"{op.name()}: {reason}; its wire stages the chunk",
                op,
            ))
    for s_id in sends:
        op = plan.op(s_id)
        if is_relay(op) and any(
            origin.get((s_id, c)) in staged or (s_id, c) not in origin
            for c in op.chunks_carried()
        ):
            staged.add(s_id)
    return AliasProof(frozenset(staged), tuple(diags))


def _physical_diags(plan: Plan, topo: PhysicalTopology) -> list[Diagnostic]:
    diags = []
    for op in plan.ops:
        if op.kind != SEND:
            continue
        if op.medium == "pcie":
            continue
        if not (0 <= op.rank < topo.nnodes and 0 <= op.peer < topo.nnodes):
            diags.append(_diag(
                "PLAN006",
                f"{op.name()}: endpoint outside topology "
                f"{topo.name!r} ({topo.nnodes} nodes)",
                op,
            ))
            continue
        lanes = topo.lane_count(op.rank, op.peer)
        if lanes == 0:
            diags.append(_diag(
                "PLAN006",
                f"{op.name()}: no physical link {op.rank}->{op.peer} "
                f"in topology {topo.name!r}",
                op,
            ))
        elif plan.legalized and not (0 <= op.lane < lanes):
            diags.append(_diag(
                "PLAN006",
                f"{op.name()}: lane {op.lane} out of range "
                f"(link {op.rank}->{op.peer} has {lanes} lane(s))",
                op,
            ))
    return diags


def verify_plan(
    plan: Plan,
    *,
    topo: PhysicalTopology | None = None,
    raise_on_error: bool = True,
) -> VerifyReport:
    """Statically verify a plan; see the module docstring for the checks.

    Args:
        plan: the plan to verify.
        topo: when given, additionally check every NVLink hop rides an
            existing physical link/lane (``medium="pcie"`` hops are
            exempt — they ride the host path).
        raise_on_error: raise :class:`PlanVerificationError` listing all
            diagnostics instead of returning a failed report.
    """
    diags = _structural_diags(plan)
    pairing = match_wires(plan)
    diags.extend(pairing.diagnostics)
    order: list[int] = []
    reach: list[int] = []
    if not diags:
        preds = _combined_edges(plan, pairing)
        order, cycle_diags = _topo_order(plan, preds)
        diags.extend(cycle_diags)
        if order:
            reach = _ancestors(preds, order)
            diags.extend(_dataflow_diags(plan, pairing, order))
            diags.extend(_race_diags(plan, reach))
            diags.extend(_broadcast_diags(plan, pairing, reach))
    if topo is not None:
        diags.extend(_physical_diags(plan, topo))
    errors = [render_diagnostic(d) for d in diags]
    if errors and raise_on_error:
        raise PlanVerificationError(errors)
    return VerifyReport(
        ok=not errors, errors=errors, pairing=pairing, order=order,
        diagnostics=diags, reach=reach,
    )
