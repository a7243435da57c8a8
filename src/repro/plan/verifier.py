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
7. **Enqueue order** (``PLAN013``) — on every rank, one tree's chunks
   become final (last REDUCE or RECV there) in position order, which
   the gradient queue's layer-chunk table counts on (Observation #3).
   Only tree phases are checked: ring phases finalize in ring order by
   design and are never chained.

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

import heapq
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import lt, sub
from typing import Iterator

from ..analyze.diagnostics import Diagnostic, severity_of
from ..codes import PHASES, Phase
from ..errors import PlanVerificationError
from ..topology.base import PhysicalTopology
from .ir import K_COPY, K_RECV, K_REDUCE, K_SEND, Plan

__all__ = [
    "BROADCAST_LIKE",
    "REDUCE_LIKE",
    "REDUCE_LIKE_CODES",
    "AliasProof",
    "Partners",
    "WirePairing",
    "VerifyReport",
    "match_wires",
    "prove_send_aliasing",
    "verify_plan",
    "execution_order",
    "chunk_finals",
    "slot_writes",
    "relay_key",
]

#: Phases that produce partial sums / fully reduced chunks, and phases
#: that may only move chunks already fully reduced.
REDUCE_LIKE = (Phase.REDUCE, Phase.REDUCE_SCATTER)
BROADCAST_LIKE = (Phase.BROADCAST, Phase.ALL_GATHER)
#: ``Plan.phase_code`` values of the reduce-like phases.
REDUCE_LIKE_CODES = frozenset(PHASES.index(p) for p in REDUCE_LIKE)
_BROADCAST_LIKE_CODES = frozenset(PHASES.index(p) for p in BROADCAST_LIKE)
#: Phases of the tree algorithms, whose finals the gradient queue counts.
_TREE_PHASE_CODES = frozenset(
    PHASES.index(p) for p in (Phase.REDUCE, Phase.BROADCAST)
)


def _diag(
    code: str, message: str, plan: Plan | None = None, i: int = -1
) -> Diagnostic:
    """A typed diagnostic, carrying op ``i``'s id/name/provenance."""
    named = plan is not None and i >= 0
    return Diagnostic(
        code=code,
        message=message,
        severity=severity_of(code),
        op_id=i if named else -1,
        op_name=plan.name_of(i) if named else "",
        origin=plan.origin_of(i) if named else "",
    )


def render_diagnostic(d: Diagnostic) -> str:
    """The legacy error-string form: message plus provenance suffix."""
    if d.origin:
        return f"{d.message} [from {d.origin}]"
    return d.message


class Partners(Mapping):
    """Op id -> paired op id (send <-> recv/reduce), over one array:
    ``ids[i]`` is op ``i``'s partner, ``-1`` when it has none."""

    __slots__ = ("ids",)

    def __init__(self, nops: int = 0):
        self.ids = array("i", [-1]) * nops

    def __getitem__(self, op_id: int) -> int:
        partner = self.ids[op_id] if 0 <= op_id < len(self.ids) else -1
        if partner < 0:
            raise KeyError(op_id)
        return partner

    def __iter__(self) -> Iterator[int]:
        return (i for i, p in enumerate(self.ids) if p >= 0)

    def __len__(self) -> int:
        return len(self.ids) - self.ids.count(-1)


@dataclass
class WirePairing:
    """Send/recv pairing of one plan, shared with interpreter/lowering.

    Attributes:
        partner: op_id -> paired op_id (send <-> recv/reduce).
        wires: wire key -> (send op ids, recv op ids) in FIFO order.
        diagnostics: typed pairing findings (mismatched counts/payloads,
            racy multi-producer wires) — ``PLAN002``.
    """

    partner: Partners = field(default_factory=Partners)
    wires: dict[tuple, tuple[array, array]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[str]:
        """Pairing diagnostics as plain strings (legacy API)."""
        return [render_diagnostic(d) for d in self.diagnostics]


def match_wires(plan: Plan) -> WirePairing:
    """Pair every SEND with its RECV/REDUCE by FIFO order per wire."""
    n = len(plan)
    pairing = WirePairing(partner=Partners(n))
    partner = pairing.partner.ids
    # Per wire, keyed by its integer columns until the wire is named:
    # (send ids, recv ids, send blocks, recv blocks).
    by_code: dict[tuple, tuple[array, array, set, set]] = {}
    rank, peer, tree = plan.rank, plan.peer, plan.tree
    phase, flow, tb = plan.phase_code, plan.flow_id, plan.tb_id
    for i, kind in enumerate(plan.kind_code):
        if kind == K_COPY:
            continue
        r, p = rank[i], peer[i]
        code = (
            (r, p, tree[i], phase[i], flow[i]) if kind == K_SEND
            else (p, r, tree[i], phase[i], flow[i])
        )
        entry = by_code.get(code)
        if entry is None:
            entry = by_code[code] = (array("i"), array("i"), set(), set())
        side = 0 if kind == K_SEND else 1
        entry[side].append(i)
        entry[side + 2].add((r, tb[i]))
    named = {
        (src, dst, t, PHASES[ph], plan.flows[f]): entry
        for (src, dst, t, ph, f), entry in by_code.items()
    }

    chunks = plan.chunk_lists()
    for wire in sorted(named, key=repr):
        s_ids, r_ids, send_tbs, recv_tbs = named[wire]
        pairing.wires[wire] = (s_ids, r_ids)
        if len(s_ids) != len(r_ids):
            longer = s_ids if len(s_ids) > len(r_ids) else r_ids
            culprit = longer[min(len(s_ids), len(r_ids))]
            pairing.diagnostics.append(_diag(
                "PLAN002",
                f"wire {wire}: {len(s_ids)} send(s) vs {len(r_ids)} "
                f"recv(s); unmatched {plan.name_of(culprit)}",
                plan, culprit,
            ))
            continue
        for tbs, role, first in ((send_tbs, "sender", s_ids[0]),
                                 (recv_tbs, "receiver", r_ids[0])):
            if len(tbs) > 1:
                blocks = {(r, plan.tbs[t]) for r, t in tbs}
                pairing.diagnostics.append(_diag(
                    "PLAN002",
                    f"wire {wire}: {len(blocks)} {role} thread blocks "
                    f"{sorted(blocks, key=repr)} — FIFO order is racy; "
                    f"first {plan.name_of(first)}",
                    plan, first,
                ))
        for s_id, r_id in zip(s_ids, r_ids):
            s_chunks, r_chunks = chunks[s_id], chunks[r_id]
            if s_chunks != r_chunks:
                pairing.diagnostics.append(_diag(
                    "PLAN002",
                    f"wire {wire}: {plan.name_of(s_id)} carries "
                    f"{s_chunks} but paired {plan.name_of(r_id)} "
                    f"expects {r_chunks}",
                    plan, s_id,
                ))
                continue
            s_bytes, r_bytes = plan.payload[s_id], plan.payload[r_id]
            if abs(s_bytes - r_bytes) > 1e-9 * max(1.0, s_bytes):
                pairing.diagnostics.append(_diag(
                    "PLAN002",
                    f"wire {wire}: payload mismatch between "
                    f"{plan.name_of(s_id)} ({s_bytes}B) and "
                    f"{plan.name_of(r_id)} ({r_bytes}B)",
                    plan, s_id,
                ))
            partner[s_id] = r_id
            partner[r_id] = s_id
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
    n, nnodes, nchunks = len(plan), plan.nnodes, plan.nchunks
    offsets, dep_ids = plan.dep_offsets, plan.dep_ids
    chunk_lists = plan.chunk_lists()
    for i, kind in enumerate(plan.kind_code):
        rank = plan.rank[i]
        if not (0 <= rank < nnodes):
            diags.append(_diag(
                "PLAN001", f"{plan.name_of(i)}: rank {rank} out of range",
                plan, i,
            ))
        chunks = chunk_lists[i]
        if kind != K_COPY:
            peer = plan.peer[i]
            if not (0 <= peer < nnodes):
                diags.append(_diag(
                    "PLAN001",
                    f"{plan.name_of(i)}: peer {peer} out of range",
                    plan, i,
                ))
            elif peer == rank:
                diags.append(_diag(
                    "PLAN001", f"{plan.name_of(i)}: self-transfer", plan, i
                ))
            if not chunks:
                diags.append(_diag(
                    "PLAN001",
                    f"{plan.name_of(i)}: transfer carries no chunks",
                    plan, i,
                ))
            nbytes = plan.payload[i]
            if not math.isfinite(nbytes):
                diags.append(_diag(
                    "PLAN001",
                    f"{plan.name_of(i)}: non-finite payload {nbytes}",
                    plan, i,
                ))
            elif nbytes <= 0:
                diags.append(_diag(
                    "PLAN001", f"{plan.name_of(i)}: non-positive payload",
                    plan, i,
                ))
        for c in chunks:
            if not (0 <= c < nchunks):
                diags.append(_diag(
                    "PLAN001", f"{plan.name_of(i)}: chunk {c} out of range",
                    plan, i,
                ))
        for d in dep_ids[offsets[i]:offsets[i + 1]]:
            if not (0 <= d < n):
                diags.append(_diag(
                    "PLAN001", f"{plan.name_of(i)}: dep {d} out of range",
                    plan, i,
                ))
            elif d >= i:
                diags.append(_diag(
                    "PLAN001",
                    f"{plan.name_of(i)}: forward/self dep on op {d} "
                    "(deps must reference earlier ops)",
                    plan, i,
                ))
    return diags


@dataclass
class _Graph:
    """The combined happens-before graph, read from the plan's CSR deps
    plus two predecessor columns: op ``i``'s predecessors are its deps,
    ``prev[i]`` (the op before it in its thread block) and
    ``sender[i]`` (the SEND it receives from), each ``-1`` when absent.
    ``forward`` is set when some predecessor has a higher id than its
    dependent (else op-id order is the smallest-first topological
    order)."""

    offsets: array
    dep_ids: array
    prev: array
    sender: array
    forward: bool

    def preds(self, i: int):
        yield from self.dep_ids[self.offsets[i]:self.offsets[i + 1]]
        if self.prev[i] >= 0:
            yield self.prev[i]
        if self.sender[i] >= 0:
            yield self.sender[i]


def _combined_edges(plan: Plan, pairing: WirePairing) -> _Graph:
    """The combined graph: deps ∪ program order ∪ send→recv pairing."""
    n = len(plan)
    forward = False
    sender = array("i", [-1]) * n
    for s_ids, r_ids in pairing.wires.values():
        for s_id, r_id in zip(s_ids, r_ids):
            sender[r_id] = s_id
            forward = forward or s_id > r_id
    prev = array("i", [-1]) * n
    last: dict[tuple[int, int], int] = {}
    for i, block in enumerate(zip(plan.rank, plan.tb_id)):
        prev[i] = last.get(block, -1)
        last[block] = i
    offsets, dep_ids = plan.dep_offsets, plan.dep_ids
    if dep_ids and not (min(dep_ids) >= 0 and max(dep_ids) < n):
        # Malformed deps (only an unverified plan has them): drop the
        # ones naming no op.
        valid, kept = array("i", [0]), array("i")
        for i in range(n):
            kept.extend(
                d for d in dep_ids[offsets[i]:offsets[i + 1]] if 0 <= d < n
            )
            valid.append(len(kept))
        offsets, dep_ids = valid, kept
    # The op owning each entry of ``dep_ids``, in order.
    owners = chain.from_iterable(
        map(repeat, range(n), map(sub, offsets[1:], offsets[:-1]))
    )
    forward = forward or not all(map(lt, dep_ids, owners))
    return _Graph(offsets, dep_ids, prev, sender, forward)


def _topo_order(
    plan: Plan, graph: _Graph
) -> tuple[list[int], list[Diagnostic]]:
    n = len(plan)
    if not graph.forward:
        return list(range(n)), []
    indeg = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for d in graph.preds(i):
            succs[d].append(i)
            indeg[i] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
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
        first = stuck[0]
        return [], [_diag(
            "PLAN003",
            f"dependency cycle (deadlock): {len(stuck)} op(s) can never "
            f"run, first {plan.name_of(first)}",
            plan, first,
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


def relay_key(plan: Plan, i: int) -> tuple:
    """What relay leg ``i``'s staged chunks are keyed by on its GPU
    (with the chunk id): its flow, tree and phase.  The verifier's
    replay and the interpreter stage relays alike."""
    return (plan.flow_id[i], plan.tree[i], plan.phase_code[i])


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
    last_writer: dict[tuple[int, int], int] = {}
    full = {r: 1 for r in range(nnodes)}
    partner = pairing.partner.ids
    kinds, ranks = plan.kind_code, plan.rank
    chunks, relays = plan.chunk_lists(), plan.relay_ids()

    # Relay legs forward through a staging register, not the slot.
    relay_reg: dict[tuple, dict[int, int]] = {}

    for op_id in order:
        kind, rank = kinds[op_id], ranks[op_id]
        if kind == K_SEND:
            if op_id in relays:
                staged: dict[int, dict[int, int]] = {}
                for c in chunks[op_id]:
                    key = (rank, relay_key(plan, op_id), c)
                    if key not in relay_reg:
                        diags.append(_diag(
                            "PLAN004",
                            f"{plan.name_of(op_id)}: relay forwards chunk "
                            f"{c} before receiving it",
                            plan, op_id,
                        ))
                        staged[c] = {}
                    else:
                        staged[c] = dict(relay_reg[key])
                payload[op_id] = staged
                continue
            payload[op_id] = {
                c: dict(slot[(rank, c)]) for c in chunks[op_id]
            }
        elif kind == K_REDUCE:
            s_id = partner[op_id]
            if s_id < 0:
                continue
            for c in chunks[op_id]:
                incoming = payload.get(s_id, {}).get(c, {})
                local = slot[(rank, c)]
                for contributor, count in incoming.items():
                    local[contributor] = local.get(contributor, 0) + count
                    if local[contributor] > 1:
                        diags.append(_diag(
                            "PLAN004",
                            f"{plan.name_of(op_id)}: rank {rank} reduces "
                            f"chunk {c} contribution of rank {contributor} "
                            f"twice (duplicate reduction)",
                            plan, op_id,
                        ))
                last_writer[(rank, c)] = op_id
        elif kind == K_RECV:
            s_id = partner[op_id]
            if s_id < 0:
                continue
            if op_id in relays:
                for c in chunks[op_id]:
                    relay_reg[(rank, relay_key(plan, op_id), c)] = dict(
                        payload.get(s_id, {}).get(c, {})
                    )
                continue
            for c in chunks[op_id]:
                incoming = payload.get(s_id, {}).get(c, {})
                slot[(rank, c)] = dict(incoming)
                last_writer[(rank, c)] = op_id
                if incoming == full:
                    deliveries[(rank, c)] = (
                        deliveries.get((rank, c), 0) + 1
                    )
                    if deliveries[(rank, c)] > 1:
                        diags.append(_diag(
                            "PLAN004",
                            f"{plan.name_of(op_id)}: rank {rank} receives "
                            f"the reduced chunk {c} twice (duplicate "
                            f"broadcast)",
                            plan, op_id,
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
            writer = last_writer.get((r, c), -1)
            where = (
                f" (last written by {plan.name_of(writer)})"
                if writer >= 0 else ""
            )
            if missing:
                diags.append(_diag(
                    "PLAN004",
                    f"rank {r} chunk {c}: contributions from rank(s) "
                    f"{missing} never reduced in{where} (dropped reduce)",
                    plan, writer,
                ))
            if extra:
                diags.append(_diag(
                    "PLAN004",
                    f"rank {r} chunk {c}: contributions from rank(s) "
                    f"{extra} counted more than once{where}",
                    plan, writer,
                ))
            if not missing and not extra:
                diags.append(_diag(
                    "PLAN004",
                    f"rank {r} chunk {c}: final value is not the full "
                    f"reduction{where}",
                    plan, writer,
                ))
    return diags


def _ancestors(graph: _Graph, order: list[int]) -> list[int]:
    """Per op, the bitset of its ancestors (inclusive) in the combined
    graph: bit ``a`` of ``reach[b]`` is set iff ``a`` happens-before
    ``b`` (or ``a == b``)."""
    offsets, dep_ids = graph.offsets, graph.dep_ids
    prev, sender = graph.prev, graph.sender
    reach = [0] * len(prev)
    for op_id in order:
        bits = 1 << op_id
        for d in dep_ids[offsets[op_id]:offsets[op_id + 1]]:
            bits |= reach[d]
        p = prev[op_id]
        if p >= 0:
            bits |= reach[p]
        p = sender[op_id]
        if p >= 0:
            bits |= reach[p]
        reach[op_id] = bits
    return reach


def _slot_accesses(
    plan: Plan,
) -> dict[tuple[int, int], list[tuple[int, bool]]]:
    """(rank, chunk) -> [(op id, writes)] for every op touching a
    gradient slot; relay legs and COPY markers touch none."""
    accesses: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    chunks, relays = plan.chunk_lists(), plan.relay_ids()
    for i, (kind, rank) in enumerate(zip(plan.kind_code, plan.rank)):
        if kind == K_COPY or i in relays:
            continue
        writes = kind != K_SEND
        for c in chunks[i]:
            accesses.setdefault((rank, c), []).append((i, writes))
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
                        f"{plan.name_of(a)} and {plan.name_of(b)} "
                        "are unordered",
                        plan, a,
                    ))
    return diags


def _sends(plan: Plan) -> list[int]:
    return [i for i, kind in enumerate(plan.kind_code) if kind == K_SEND]


def _broadcast_diags(
    plan: Plan, pairing: WirePairing, reach: list[int]
) -> list[Diagnostic]:
    """Broadcast-like SENDs of a chunk not ordered after every
    reduce-like transfer of it completes (either endpoint of the reduce
    is enough: the DES merges both into one transfer)."""
    sends = _sends(plan)
    phase, partner = plan.phase_code, pairing.partner.ids
    chunks = plan.chunk_lists()
    reduces: dict[int, list[int]] = {}
    for i in sends:
        if phase[i] in REDUCE_LIKE_CODES:
            for c in chunks[i]:
                reduces.setdefault(c, []).append(i)
    diags = []
    for b in sends:
        if phase[b] not in _BROADCAST_LIKE_CODES:
            continue
        for chunk in chunks[b]:
            for r in reduces.get(chunk, ()):
                done = 1 << r | 1 << partner[r]
                if not reach[b] & done:
                    diags.append(_diag(
                        "PLAN011",
                        f"chunk {chunk}: broadcast {plan.name_of(b)} is "
                        f"not ordered after reduce {plan.name_of(r)} "
                        "completes — the payload may not be the full sum",
                        plan, b,
                    ))
    return diags


def slot_writes(plan: Plan) -> dict[tuple[int, int], list[int]]:
    """``(rank, chunk) ->`` the ops that write that gradient slot."""
    return {
        slot: [op_id for op_id, is_write in ops if is_write]
        for slot, ops in _slot_accesses(plan).items()
    }


def chunk_finals(
    writes: dict[tuple[int, int], list[int]], reach: list[int]
) -> dict[tuple[int, int], int]:
    """Slot -> the op that makes its chunk final there: the last REDUCE
    or RECV (relay legs excluded), which every other write of the slot
    happens-before — race freedom orders them (``reach`` bitsets)."""
    finals: dict[tuple[int, int], int] = {}
    for slot, ops in writes.items():
        for op_id in ops:
            last = finals.get(slot)
            if last is None or reach[op_id] >> last & 1:
                finals[slot] = op_id
    return finals


def _enqueue_order_diags(plan: Plan, reach: list[int]) -> list[Diagnostic]:
    """Chunks of one tree made final out of position order on a rank."""
    if plan.ntrees < 1 or plan.nchunks % plan.ntrees:
        return []
    per_tree = plan.nchunks // plan.ntrees
    finals = chunk_finals(slot_writes(plan), reach)
    diags = []
    for (rank, c), b in sorted(finals.items()):
        a = finals.get((rank, c - 1))
        if (
            c % per_tree == 0 or a is None or reach[b] >> a & 1
            or not {plan.phase_code[a], plan.phase_code[b]}
            <= _TREE_PHASE_CODES
        ):
            continue
        diags.append(_diag(
            "PLAN013",
            f"rank {rank}: chunk {c} may become final ({plan.name_of(b)}) "
            f"before chunk {c - 1} ({plan.name_of(a)}) — the gradient "
            "queue would enqueue out of position order",
            plan, b,
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
    partner = pairing.partner.ids
    chunks, relays = plan.chunk_lists(), plan.relay_ids()
    for op_id in order:
        kind = plan.kind_code[op_id]
        if kind == K_SEND:
            if op_id in relays:
                for c in chunks[op_id]:
                    key = (plan.rank[op_id], relay_key(plan, op_id), c)
                    if key in stash:
                        origin[(op_id, c)] = stash.pop(key)
            continue
        if kind == K_COPY:
            continue
        sender = partner[op_id]
        if sender < 0:
            continue
        relay = op_id in relays
        for c in chunks[op_id]:
            source = origin.get((sender, c), sender)
            if relay:
                stash[(plan.rank[op_id], relay_key(plan, op_id), c)] = source
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
    sends = _sends(plan)
    if not report.reach:
        return AliasProof(frozenset(sends), ())
    pairing, order, reach = report.pairing, report.order, report.reach
    consumer, origin = _final_consumers(plan, pairing, order)
    writes = slot_writes(plan)
    chunks, relays = plan.chunk_lists(), plan.relay_ids()

    def rewrite(s: int) -> str | None:
        """Why SEND ``s``'s payload may change in flight (None: it
        can't)."""
        rank = plan.rank[s]
        for c in chunks[s]:
            k = consumer.get((s, c))
            if k is None:
                return f"chunk {c} never reaches a consumer"
            for w in writes.get((rank, c), ()):
                if not (reach[s] >> w & 1 or reach[w] >> k & 1):
                    return (
                        f"rank {rank} chunk {c} is rewritten by "
                        f"{plan.name_of(w)} before {plan.name_of(k)} "
                        "consumes it"
                    )
        return None

    staged: set[int] = set()
    diags: list[Diagnostic] = []
    for s_id in sends:
        reason = None if s_id in relays else rewrite(s_id)
        if reason is not None:
            staged.add(s_id)
            diags.append(_diag(
                "PLAN012",
                f"{plan.name_of(s_id)}: {reason}; its wire stages the chunk",
                plan, s_id,
            ))
    for s_id in sends:
        if s_id in relays and any(
            origin.get((s_id, c)) in staged or (s_id, c) not in origin
            for c in chunks[s_id]
        ):
            staged.add(s_id)
    return AliasProof(frozenset(staged), tuple(diags))


def _physical_diags(plan: Plan, topo: PhysicalTopology) -> list[Diagnostic]:
    diags = []
    for i in _sends(plan):
        if plan.media[plan.medium_code[i]] == "pcie":
            continue
        rank, peer = plan.rank[i], plan.peer[i]
        if not (0 <= rank < topo.nnodes and 0 <= peer < topo.nnodes):
            diags.append(_diag(
                "PLAN006",
                f"{plan.name_of(i)}: endpoint outside topology "
                f"{topo.name!r} ({topo.nnodes} nodes)",
                plan, i,
            ))
            continue
        lanes = topo.lane_count(rank, peer)
        if lanes == 0:
            diags.append(_diag(
                "PLAN006",
                f"{plan.name_of(i)}: no physical link {rank}->{peer} "
                f"in topology {topo.name!r}",
                plan, i,
            ))
        elif plan.legalized and not (0 <= plan.lane[i] < lanes):
            diags.append(_diag(
                "PLAN006",
                f"{plan.name_of(i)}: lane {plan.lane[i]} out of range "
                f"(link {rank}->{peer} has {lanes} lane(s))",
                plan, i,
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
        graph = _combined_edges(plan, pairing)
        order, cycle_diags = _topo_order(plan, graph)
        diags.extend(cycle_diags)
        if order:
            reach = _ancestors(graph, order)
            diags.extend(_dataflow_diags(plan, pairing, order))
            diags.extend(_race_diags(plan, reach))
            diags.extend(_broadcast_diags(plan, pairing, reach))
            diags.extend(_enqueue_order_diags(plan, reach))
    if topo is not None:
        diags.extend(_physical_diags(plan, topo))
    errors = [render_diagnostic(d) for d in diags]
    if errors and raise_on_error:
        raise PlanVerificationError(errors)
    return VerifyReport(
        ok=not errors, errors=errors, pairing=pairing, order=order,
        diagnostics=diags, reach=reach,
    )
