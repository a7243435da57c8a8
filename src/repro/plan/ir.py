"""Intermediate representation for collective plans.

A :class:`Plan` expresses a collective as a flat program of chunk-level
primitives (:class:`PlanOp`): SEND/RECV move a chunk over a link, REDUCE
receives a chunk and accumulates it into the local gradient buffer, COPY
is a local zero-work marker (root "reduced" markers, phase barriers).

Ops are grouped into per-GPU *thread blocks* (``(rank, tb)``): each
thread block is one sequential execution context — a kernel on the
thread-backed runtime.  Within a thread block, op-id order IS program
order.  Cross-thread-block ordering is carried by explicit ``deps``
(always backward references) and by send/recv pairing on *wires*.

A wire is the FIFO queue between a sender and a receiver, keyed by
``(src, dst, tree, phase, flow)``; the k-th SEND on a wire pairs with
the k-th RECV/REDUCE on the same wire.  This pairing is statically
computable, which is what lets the verifier prove deadlock-freedom and
exactly-once reduction without running anything.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from ..errors import PlanError
from ..sim.dag import Phase

__all__ = [
    "OpKind", "PlanOp", "Plan", "SEND", "RECV", "REDUCE", "COPY",
    "stamp_origin",
]


class OpKind:
    """Primitive op kinds (plain strings so plans serialize trivially)."""

    SEND = "send"
    RECV = "recv"
    REDUCE = "reduce"
    COPY = "copy"

    ALL = (SEND, RECV, REDUCE, COPY)


SEND = OpKind.SEND
RECV = OpKind.RECV
REDUCE = OpKind.REDUCE
COPY = OpKind.COPY

# Kinds that consume a chunk from a wire.
_RECEIVING = (OpKind.RECV, OpKind.REDUCE)


@dataclass(frozen=True)
class PlanOp:
    """One primitive operation of a collective plan.

    Attributes:
        op_id: dense plan-wide id; within a ``(rank, tb)`` thread block,
            ascending op_id is program order.
        rank: the GPU this op executes on.
        kind: one of :class:`OpKind`.
        chunk: global chunk id this op carries (``-1`` for aggregated or
            chunk-less ops; see ``chunk_set``).
        chunk_set: for aggregated transfers (halving-doubling), every
            global chunk id carried in one framed message.  Empty for
            single-chunk ops.
        peer: the other endpoint (SEND: destination; RECV/REDUCE:
            source).  ``-1`` for local ops.
        nbytes: payload size of the transfer (0 for local ops).
        lane: physical lane the transfer uses once lanes are assigned.
        tree: logical tree/ring index (used for lane defaults, fault
            targeting, and wire keys).
        tb: hashable thread-block id; ``(rank, tb)`` is one sequential
            kernel.
        phase: the :class:`~repro.sim.dag.Phase` the op belongs to.
        flow: after route legalization, the logical ``(src, dst)`` this
            hop implements (detour legs share one flow).  ``None`` for
            direct transfers.
        medium: ``"nvlink"`` or ``"pcie"`` — which fabric the transfer
            is charged to after legalization.
        deps: op_ids that must complete before this op runs (always
            backward references, in addition to implicit program order).
        label: human-readable description for diagnostics.
        origin: provenance tag — the builder or compile pass that
            introduced the op (``"builder:ring"``,
            ``"pass:legalize_routes"``); carried through passes so
            post-pass diagnostics name the phase that created the op.
    """

    op_id: int
    rank: int
    kind: str
    chunk: int = -1
    chunk_set: tuple[int, ...] = ()
    peer: int = -1
    nbytes: float = 0.0
    lane: int = 0
    tree: int = 0
    tb: Hashable = 0
    phase: Phase = Phase.OTHER
    flow: tuple[int, int] | None = None
    medium: str = "nvlink"
    deps: tuple[int, ...] = ()
    label: str = ""
    origin: str = ""

    @property
    def src(self) -> int:
        """Source GPU of the transfer (-1 for local ops)."""
        if self.kind == OpKind.SEND:
            return self.rank
        if self.kind in _RECEIVING:
            return self.peer
        return -1

    @property
    def dst(self) -> int:
        """Destination GPU of the transfer (-1 for local ops)."""
        if self.kind == OpKind.SEND:
            return self.peer
        if self.kind in _RECEIVING:
            return self.rank
        return -1

    @property
    def is_transfer(self) -> bool:
        return self.kind in (OpKind.SEND, OpKind.RECV, OpKind.REDUCE)

    def chunks_carried(self) -> tuple[int, ...]:
        """Every global chunk id this op touches, ascending."""
        if self.chunk_set:
            return tuple(sorted(self.chunk_set))
        if self.chunk >= 0:
            return (self.chunk,)
        return ()

    def wire_key(self) -> tuple:
        """FIFO wire this transfer rides: ``(src, dst, tree, phase, flow)``.

        Identical for a SEND and its paired RECV/REDUCE; local ops have
        no wire.
        """
        if not self.is_transfer:
            raise PlanError(f"op {self.op_id} ({self.kind}) has no wire")
        return (self.src, self.dst, self.tree, self.phase, self.flow)

    def name(self) -> str:
        """Short diagnostic name: ``op 17 [send c3 2->4 t0]``."""
        desc = self.label or self._default_desc()
        return f"op {self.op_id} [{desc}]"

    def _default_desc(self) -> str:
        chunks = self.chunks_carried()
        cdesc = (
            f"c{chunks[0]}" if len(chunks) == 1
            else "c{" + ",".join(str(c) for c in chunks) + "}"
            if chunks else "c?"
        )
        if self.kind == OpKind.SEND:
            return f"send {cdesc} {self.rank}->{self.peer} t{self.tree}"
        if self.kind == OpKind.RECV:
            return f"recv {cdesc} {self.peer}->{self.rank} t{self.tree}"
        if self.kind == OpKind.REDUCE:
            return f"reduce {cdesc} {self.peer}->{self.rank} t{self.tree}"
        return f"copy {cdesc} @{self.rank} t{self.tree}"

    def replace(self, **changes) -> "PlanOp":
        """A copy with ``changes`` applied, like :func:`dataclasses.replace`.

        Every compile pass calls this per rewritten op, so it copies the
        instance dict instead of running the generated ``__init__``
        again (there is no ``__post_init__`` to skip).
        """
        if not _PLAN_OP_FIELDS.issuperset(changes):
            unknown = sorted(changes.keys() - _PLAN_OP_FIELDS)
            raise TypeError(f"PlanOp has no field(s) {unknown}")
        op = object.__new__(type(self))
        vars(op).update(vars(self), **changes)
        return op


_PLAN_OP_FIELDS = frozenset(f.name for f in dataclasses.fields(PlanOp))


def stamp_origin(plan: "Plan", origin: str) -> "Plan":
    """Tag every op that has no provenance yet with ``origin`` (in place).

    Builders call this once at the end so every op they emitted is
    attributed; passes that rewrite ops preserve existing origins and
    only stamp the ops they introduce themselves.
    """
    plan.ops = [
        op if op.origin else op.replace(origin=origin) for op in plan.ops
    ]
    return plan


_JSON_VERSION = 1


def _tb_to_json(tb: Hashable):
    """Thread-block ids are ints, strings, or tuples (``(0, "up")``);
    tuples get tagged so JSON round-trips them back to tuples."""
    if isinstance(tb, tuple):
        return {"tuple": [_tb_to_json(part) for part in tb]}
    if isinstance(tb, (int, str)):
        return tb
    raise PlanError(f"thread-block id {tb!r} is not JSON-serializable")


def _tb_from_json(data) -> Hashable:
    if isinstance(data, dict):
        try:
            parts = data["tuple"]
        except KeyError:
            raise PlanError(f"malformed thread-block id {data!r}") from None
        return tuple(_tb_from_json(part) for part in parts)
    if isinstance(data, (int, str)):
        return data
    raise PlanError(f"malformed thread-block id {data!r}")


def _op_to_dict(op: "PlanOp") -> dict:
    return {
        "op_id": op.op_id,
        "rank": op.rank,
        "kind": op.kind,
        "chunk": op.chunk,
        "chunk_set": list(op.chunk_set),
        "peer": op.peer,
        "nbytes": op.nbytes,
        "lane": op.lane,
        "tree": op.tree,
        "tb": _tb_to_json(op.tb),
        "phase": op.phase.value,
        "flow": list(op.flow) if op.flow is not None else None,
        "medium": op.medium,
        "deps": list(op.deps),
        "label": op.label,
        "origin": op.origin,
    }


def _op_from_dict(data: dict) -> "PlanOp":
    if not isinstance(data, dict):
        raise PlanError(f"plan op must be an object, got {type(data).__name__}")
    try:
        kind = data["kind"]
        if kind not in OpKind.ALL:
            raise PlanError(f"unknown op kind {kind!r}")
        try:
            phase = Phase(data["phase"])
        except ValueError:
            raise PlanError(f"unknown phase {data['phase']!r}") from None
        flow = data.get("flow")
        return PlanOp(
            op_id=int(data["op_id"]),
            rank=int(data["rank"]),
            kind=kind,
            chunk=int(data.get("chunk", -1)),
            chunk_set=tuple(int(c) for c in data.get("chunk_set", ())),
            peer=int(data.get("peer", -1)),
            nbytes=float(data.get("nbytes", 0.0)),
            lane=int(data.get("lane", 0)),
            tree=int(data.get("tree", 0)),
            tb=_tb_from_json(data.get("tb", 0)),
            phase=phase,
            flow=(int(flow[0]), int(flow[1])) if flow is not None else None,
            medium=str(data.get("medium", "nvlink")),
            deps=tuple(int(d) for d in data.get("deps", ())),
            label=str(data.get("label", "")),
            origin=str(data.get("origin", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanError(f"malformed plan op: {exc}") from exc


@dataclass
class Plan:
    """A compiled collective: per-GPU thread-block programs of ops.

    Attributes:
        algorithm: name of the collective the plan implements.
        nnodes: number of GPU ranks.
        nbytes: total gradient payload in bytes.
        chunk_sizes: per-global-chunk sizes in bytes.
        chunk_offsets: per-global-chunk byte offsets.
        ops: every op, dense ids ``0..len(ops)-1``.
        ntrees: logical trees/rings the chunk space is striped over
            (drives the default :class:`~repro.runtime.memory.ChunkLayout`).
        legalized: set by route legalization; lowering then charges
            physical channel resources instead of logical edge keys.
        notes: free-form pass annotations (for ``describe()``).
    """

    algorithm: str
    nnodes: int
    nbytes: float
    chunk_sizes: tuple[float, ...]
    chunk_offsets: tuple[float, ...]
    ops: list[PlanOp] = field(default_factory=list)
    ntrees: int = 1
    legalized: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def nchunks(self) -> int:
        return len(self.chunk_sizes)

    def add(self, **kwargs) -> PlanOp:
        """Append an op with the next dense id; returns it."""
        op = PlanOp(op_id=len(self.ops), **kwargs)
        self.ops.append(op)
        return op

    def op(self, op_id: int) -> PlanOp:
        return self.ops[op_id]

    def programs(self) -> "OrderedDict[tuple[int, Hashable], list[PlanOp]]":
        """Ops grouped by ``(rank, tb)``, each list in program (id) order."""
        progs: OrderedDict[tuple[int, Hashable], list[PlanOp]] = OrderedDict()
        for op in self.ops:
            progs.setdefault((op.rank, op.tb), []).append(op)
        return progs

    def transfers(self) -> Iterable[PlanOp]:
        return (op for op in self.ops if op.is_transfer)

    def replace_ops(self, ops: list[PlanOp]) -> "Plan":
        """A copy of this plan with a different op list."""
        return dataclasses.replace(self, ops=ops, notes=list(self.notes))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """Plain-JSON form of the plan (round-trips via
        :meth:`from_json_dict`)."""
        return {
            "version": _JSON_VERSION,
            "algorithm": self.algorithm,
            "nnodes": self.nnodes,
            "nbytes": self.nbytes,
            "chunk_sizes": list(self.chunk_sizes),
            "chunk_offsets": list(self.chunk_offsets),
            "ntrees": self.ntrees,
            "legalized": self.legalized,
            "notes": list(self.notes),
            "ops": [_op_to_dict(op) for op in self.ops],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=indent)

    @staticmethod
    def from_json_dict(data: dict) -> "Plan":
        """Rebuild a plan from :meth:`to_json_dict` output.

        Raises:
            PlanError: on version mismatch or malformed content.
        """
        if not isinstance(data, dict):
            raise PlanError("plan JSON must be an object")
        version = data.get("version")
        if version != _JSON_VERSION:
            raise PlanError(
                f"unsupported plan JSON version {version!r} "
                f"(expected {_JSON_VERSION})"
            )
        try:
            plan = Plan(
                algorithm=str(data["algorithm"]),
                nnodes=int(data["nnodes"]),
                nbytes=float(data["nbytes"]),
                chunk_sizes=tuple(float(s) for s in data["chunk_sizes"]),
                chunk_offsets=tuple(float(o) for o in data["chunk_offsets"]),
                ntrees=int(data.get("ntrees", 1)),
                legalized=bool(data.get("legalized", False)),
                notes=[str(n) for n in data.get("notes", [])],
            )
            ops_data = data["ops"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan JSON: {exc}") from exc
        for i, op_data in enumerate(ops_data):
            op = _op_from_dict(op_data)
            if op.op_id != i:
                raise PlanError(
                    f"plan JSON ops out of order: op {op.op_id} at index {i}"
                )
            plan.ops.append(op)
        return plan

    @staticmethod
    def from_json(text: str) -> "Plan":
        import json

        try:
            data = json.loads(text)
        except ValueError as exc:
            raise PlanError(f"plan JSON does not parse: {exc}") from exc
        return Plan.from_json_dict(data)

    def describe(self) -> str:
        """Multi-line human-readable dump (``repro plan show``)."""
        lines = [
            f"plan {self.algorithm!r}: {self.nnodes} ranks, "
            f"{self.nchunks} chunks ({self.ntrees} trees), "
            f"{len(self.ops)} ops, {self.nbytes / 1e6:.3f} MB"
            + (", legalized" if self.legalized else ""),
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        lines.append(
            "  ops: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        for (rank, tb), prog in self.programs().items():
            lines.append(f"  gpu {rank} tb {tb!r}: {len(prog)} ops")
            for op in prog:
                deps = (
                    " deps=" + ",".join(str(d) for d in op.deps)
                    if op.deps else ""
                )
                extra = ""
                if op.flow is not None:
                    extra += f" flow={op.flow[0]}->{op.flow[1]}"
                if op.medium != "nvlink":
                    extra += f" via={op.medium}"
                lines.append(f"    {op.name()} lane={op.lane}{deps}{extra}")
        return "\n".join(lines)
