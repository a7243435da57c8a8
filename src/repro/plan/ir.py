"""Intermediate representation for collective plans.

A :class:`Plan` expresses a collective as a flat program of chunk-level
primitives: SEND/RECV move a chunk over a link, REDUCE receives a chunk
and accumulates it into the local gradient buffer, COPY is a local
zero-work marker (root "reduced" markers, phase barriers).

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

A plan stores its ops column-wise, not as one object per op: one typed
array per field (``rank``, ``kind_code``, ``chunk``, ``peer``,
``payload``, ``lane``, ``tree``, ``phase_code``, ``medium_code``), the
thread block and the flow as indexes into per-plan tables, deps in CSR
form (``dep_offsets`` plus one flat ``dep_ids`` array), ``chunk_set`` and
explicit labels only on the ops that have them, and one default origin
with per-op overrides.  An op may store a :class:`Label` template
instead of a string; its text is formatted from the op's own fields
when it is read.  Builders and passes write columns through
:meth:`Plan.add` and :meth:`Plan.add_from`; the verifier, the lowering
and the interpreter read them directly.  Those two methods are the
only way to write a plan: a pass that edits ops (route legalization,
the mutation fuzzer) appends each op, changed or not, into
:meth:`Plan.derive`'s empty plan.  :class:`PlanOp` is the read-only row
a reader gets from ``plan.ops[i]`` or iteration; each read builds a
fresh row.
"""

from __future__ import annotations

import copy as _copy
import enum
from array import array
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from ..codes import (
    K_COPY, K_RECV, K_REDUCE, K_SEND, KIND_NAMES, PHASE_CODE, PHASES, Phase,
)
from ..errors import PlanError

__all__ = [
    "OpKind", "PlanOp", "Plan", "Label", "SEND", "RECV", "REDUCE", "COPY",
    "stamp_origin",
]


class OpKind:
    """Primitive op kinds (plain strings so plans serialize trivially)."""

    SEND = "send"
    RECV = "recv"
    REDUCE = "reduce"
    COPY = "copy"

    ALL = KIND_NAMES


SEND = OpKind.SEND
RECV = OpKind.RECV
REDUCE = OpKind.REDUCE
COPY = OpKind.COPY

#: Kind codes (:mod:`repro.codes`): the ``kind_code`` column indexes
#: :attr:`OpKind.ALL`.
_KIND_CODE = {kind: code for code, kind in enumerate(OpKind.ALL)}

# Kinds that consume a chunk from a wire.
_RECEIVING = (OpKind.RECV, OpKind.REDUCE)


class Label(enum.IntEnum):
    """Label templates an op can store instead of a string.

    The text is formatted from the op's own fields when it is read, so
    a builder formats no string per op.  ``{s}->{d}`` are the logical
    endpoints: the op's ``flow`` once route legalization detoured it,
    so a detour leg keeps the label of the transfer it implements.
    :data:`RELAY_RECV` / :data:`RELAY_SEND` added to a template prefix
    its text the way a detour's relay legs name their transfer.
    """

    NONE = 0
    REDUCE = 1
    REDUCED = 2
    UP = 3
    BARRIER = 4
    DOWN_RECV = 5
    DOWN = 6
    RS = 7
    RS_ACC = 8
    AG = 9
    AG_RECV = 10
    HD_RS = 11
    HD_RS_ACC = 12
    HD_AG = 13
    HD_AG_RECV = 14


_LABEL_TEXT = (
    "",
    "reduce c{c} {s}->{d} t{t}",
    "reduced c{c}@{r} t{t}",
    "up c{c} {s}->{d} t{t}",
    "phase barrier t{t}",
    "down-recv c{c} {s}->{d} t{t}",
    "down c{c} {s}->{d} t{t}",
    "rs c{c} s{a} {s}->{d}",
    "rs-acc c{c} s{a} {s}->{d}",
    "ag c{c} s{a} {s}->{d}",
    "ag-recv c{c} s{a} {s}->{d}",
    # Halving-doubling sends name their phase by its first two letters.
    "re s{a} {s}->{d} x{n}",
    "rs-acc s{a} {s}->{d} x{n}",
    "al s{a} {s}->{d} x{n}",
    "ag-recv s{a} {s}->{d} x{n}",
)

#: Template flags: the op is a detour relay leg of the labelled transfer.
RELAY_RECV = 0x40
RELAY_SEND = 0x80
_RELAY_PREFIX = {RELAY_RECV: "relay-recv", RELAY_SEND: "relay-send"}
_TEMPLATE_MASK = 0x3F


@dataclass(frozen=True)
class PlanOp:
    """One primitive operation of a collective plan: a row of a
    :class:`Plan`.

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
        phase: the :class:`~repro.codes.Phase` the op belongs to.
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
        desc = self.label or _default_desc(
            self.kind, self.chunks_carried(), self.rank, self.peer, self.tree
        )
        return f"op {self.op_id} [{desc}]"


def _default_desc(
    kind: str, chunks: tuple[int, ...], rank: int, peer: int, tree: int
) -> str:
    cdesc = (
        f"c{chunks[0]}" if len(chunks) == 1
        else "c{" + ",".join(str(c) for c in chunks) + "}"
        if chunks else "c?"
    )
    if kind == OpKind.SEND:
        return f"send {cdesc} {rank}->{peer} t{tree}"
    if kind == OpKind.RECV:
        return f"recv {cdesc} {peer}->{rank} t{tree}"
    if kind == OpKind.REDUCE:
        return f"reduce {cdesc} {peer}->{rank} t{tree}"
    return f"copy {cdesc} @{rank} t{tree}"


def stamp_origin(plan: "Plan", origin: str) -> "Plan":
    """Give every op that has no provenance yet ``origin`` (in place).

    Builders call this once at the end so every op they emitted is
    attributed; passes that rewrite ops preserve existing origins and
    only stamp the ops they introduce themselves.  It sets the plan's
    default origin and touches only the overrides that are empty.
    """
    if not plan.origin:
        plan.origin = origin
    for op_id, value in plan.origins.items():
        if not value:
            plan.origins[op_id] = origin
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


class PlanOps(Sequence):
    """A plan's ops as a sequence of :class:`PlanOp` rows.

    ``len``, indexing, slicing and iteration build rows on demand.
    """

    __slots__ = ("_plan",)

    def __init__(self, plan: "Plan"):
        self._plan = plan

    def __len__(self) -> int:
        return len(self._plan.kind_code)

    def __getitem__(self, index):
        plan = self._plan
        if isinstance(index, slice):
            return [plan._row(i) for i in range(*index.indices(len(self)))]
        n = len(self)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError(f"op index {index} out of range for {n} ops")
        return plan._row(i)

    def __iter__(self) -> Iterator[PlanOp]:
        return map(self._plan._row, range(len(self)))


class Plan:
    """A compiled collective: per-GPU thread-block programs of ops.

    Attributes:
        algorithm: name of the collective the plan implements.
        nnodes: number of GPU ranks.
        nbytes: total gradient payload in bytes.
        chunk_sizes: per-global-chunk sizes in bytes.
        chunk_offsets: per-global-chunk byte offsets.
        ops: every op as a read-only :class:`PlanOp` row, dense ids
            ``0..len(ops)-1`` (a view of the columns below).
        ntrees: logical trees/rings the chunk space is striped over
            (drives the default :class:`~repro.runtime.memory.ChunkLayout`).
        legalized: set by route legalization; lowering then charges
            physical channel resources instead of logical edge keys.
        notes: free-form pass annotations (for ``describe()``).

    Columns (read them freely; write only through :meth:`add` and
    :meth:`add_from`):

    - ``rank``, ``chunk``, ``peer``, ``payload`` (the op's ``nbytes``),
      ``lane``, ``tree``, ``kind_code`` (index into
      :attr:`OpKind.ALL`), ``phase_code`` (index into
      :data:`~repro.codes.PHASES`) and ``medium_code`` (index into
      ``media``).
    - ``tb_id`` / ``flow_id``: indexes into the ``tbs`` and ``flows``
      tables; ``flows[0]`` is ``None``.
    - ``dep_offsets`` / ``dep_ids``: op ``i``'s deps are
      ``dep_ids[dep_offsets[i]:dep_offsets[i + 1]]``.
    - ``label_kind`` / ``label_arg``: a :class:`Label` template (plus
      relay flags) and its step argument; ``labels`` holds explicit
      strings, only for the ops that have one.
    - ``chunk_sets``: op id -> chunk set, only for aggregated ops.
    - ``origin`` / ``origins``: the default origin, and op id -> origin
      for the ops whose origin differs.
    """

    def __init__(
        self,
        algorithm: str,
        nnodes: int,
        nbytes: float,
        chunk_sizes: tuple[float, ...],
        chunk_offsets: tuple[float, ...],
        ntrees: int = 1,
        legalized: bool = False,
        notes: list[str] | None = None,
    ):
        self.algorithm = algorithm
        self.nnodes = nnodes
        self.nbytes = nbytes
        self.chunk_sizes = chunk_sizes
        self.chunk_offsets = chunk_offsets
        self.ntrees = ntrees
        self.legalized = legalized
        self.notes = list(notes) if notes is not None else []
        self.rank = array("i")
        self.kind_code = array("B")
        self.chunk = array("i")
        self.peer = array("i")
        self.payload = array("d")
        self.lane = array("i")
        self.tree = array("i")
        self.phase_code = array("B")
        self.medium_code = array("B")
        self.tb_id = array("i")
        self.flow_id = array("i")
        self.label_kind = array("B")
        self.label_arg = array("i")
        self.dep_offsets = array("i", [0])
        self.dep_ids = array("i")
        self.tbs: list[Hashable] = []
        self._tb_ids: dict[Hashable, int] = {}
        self.flows: list[tuple[int, int] | None] = [None]
        self._flow_ids: dict[tuple[int, int] | None, int] = {None: 0}
        self.media: list[str] = ["nvlink", "pcie"]
        self.chunk_sets: dict[int, tuple[int, ...]] = {}
        self.labels: dict[int, str] = {}
        self.origin = ""
        self.origins: dict[int, str] = {}

    @property
    def nchunks(self) -> int:
        return len(self.chunk_sizes)

    # -- writing ---------------------------------------------------------

    def tb_index(self, tb: Hashable) -> int:
        """``tb``'s index in the thread-block table (added if new)."""
        tid = self._tb_ids.get(tb)
        if tid is None:
            tid = self._tb_ids[tb] = len(self.tbs)
            self.tbs.append(tb)
        return tid

    def flow_index(self, flow: tuple[int, int] | None) -> int:
        """``flow``'s index in the flow table (added if new)."""
        fid = self._flow_ids.get(flow)
        if fid is None:
            fid = self._flow_ids[flow] = len(self.flows)
            self.flows.append(flow)
        return fid

    def _medium_index(self, medium: str) -> int:
        try:
            return self.media.index(medium)
        except ValueError:
            self.media.append(medium)
            return len(self.media) - 1

    def add(
        self,
        *,
        rank: int,
        kind: str,
        chunk: int = -1,
        chunk_set: Iterable[int] = (),
        peer: int = -1,
        nbytes: float = 0.0,
        lane: int = 0,
        tree: int = 0,
        tb: Hashable = 0,
        phase: Phase = Phase.OTHER,
        flow: tuple[int, int] | None = None,
        medium: str = "nvlink",
        deps: Iterable[int] = (),
        label: str | Label = "",
        label_arg: int = 0,
        origin: str = "",
    ) -> int:
        """Append an op with the next dense id; returns the id.

        ``label`` is a string, or a :class:`Label` template (``label_arg``
        is its step) formatted from the op's fields when it is read.
        """
        op_id = len(self.kind_code)
        try:
            kind_code = _KIND_CODE[kind]
        except KeyError:
            raise PlanError(f"unknown op kind {kind!r}") from None
        self.rank.append(rank)
        self.chunk.append(chunk)
        self.peer.append(peer)
        self.lane.append(lane)
        self.tree.append(tree)
        self.label_arg.append(label_arg)
        self.kind_code.append(kind_code)
        self.payload.append(nbytes)
        self.phase_code.append(PHASE_CODE[phase])
        self.medium_code.append(
            0 if medium == "nvlink" else self._medium_index(medium)
        )
        self.tb_id.append(self.tb_index(tb))
        self.flow_id.append(0 if flow is None else self.flow_index(flow))
        if isinstance(label, int):
            self.label_kind.append(label)
        else:
            self.label_kind.append(0)
            if label:
                self.labels[op_id] = label
        if chunk_set:
            chunk_set = tuple(chunk_set)
            if chunk_set:
                self.chunk_sets[op_id] = chunk_set
        if origin != self.origin:
            self.origins[op_id] = origin
        self.dep_ids.extend(deps)
        self.dep_offsets.append(len(self.dep_ids))
        return op_id

    def add_from(
        self,
        other: "Plan",
        i: int,
        deps: Iterable[int],
        *,
        rank: int | None = None,
        kind_code: int | None = None,
        chunk: int | None = None,
        chunk_set: tuple[int, ...] | None = None,
        peer: int | None = None,
        nbytes: float | None = None,
        flow_id: int | None = None,
        medium_code: int | None = None,
        tb_id: int | None = None,
        label: str | None = None,
        relay: int | None = None,
        origin: str | None = None,
    ) -> int:
        """Append a copy of ``other``'s op ``i`` with new ``deps``; the
        keyword fields, when given, replace the copied ones (``flow_id``,
        ``medium_code`` and ``tb_id`` index *this* plan's tables;
        ``label`` is an explicit string).  ``relay`` (:data:`RELAY_RECV`
        or :data:`RELAY_SEND`) makes the copy a relay leg of op ``i``:
        its label is op ``i``'s, prefixed.

        Every other field is copied — ``chunk_set``, the label (string
        or template) and the origin included — without building a row.
        This is how passes map an op into a new plan.
        """
        op_id = len(self.kind_code)
        self.rank.append(other.rank[i] if rank is None else rank)
        self.kind_code.append(
            other.kind_code[i] if kind_code is None else kind_code
        )
        self.chunk.append(other.chunk[i] if chunk is None else chunk)
        self.peer.append(other.peer[i] if peer is None else peer)
        self.payload.append(other.payload[i] if nbytes is None else nbytes)
        self.lane.append(other.lane[i])
        self.tree.append(other.tree[i])
        self.phase_code.append(other.phase_code[i])
        if medium_code is None:
            medium_code = other.medium_code[i]
            if medium_code > 1:  # beyond the nvlink/pcie every plan has
                medium_code = self._medium_index(other.media[medium_code])
        self.medium_code.append(medium_code)
        if tb_id is None:
            tb_id = self.tb_index(other.tbs[other.tb_id[i]])
        self.tb_id.append(tb_id)
        if flow_id is None:
            fid = other.flow_id[i]
            flow_id = fid and self.flow_index(other.flows[fid])
        self.flow_id.append(flow_id)
        kind = other.label_kind[i]
        text = other.labels.get(i)
        if label is not None:
            kind = 0
            if label:
                self.labels[op_id] = label
        elif relay is not None:
            if text is not None:
                self.labels[op_id] = f"{_RELAY_PREFIX[relay]} {text}".strip()
                kind = 0
            else:
                kind |= relay
        elif text is not None:
            self.labels[op_id] = text
        self.label_kind.append(kind)
        self.label_arg.append(other.label_arg[i])
        if chunk_set is None:
            chunk_set = other.chunk_sets.get(i)
        if chunk_set:
            self.chunk_sets[op_id] = chunk_set
        if origin is None:
            origin = other.origins.get(i, other.origin)
        if origin != self.origin:
            self.origins[op_id] = origin
        self.dep_ids.extend(deps)
        self.dep_offsets.append(len(self.dep_ids))
        return op_id

    def copy(self) -> "Plan":
        """An independent copy: every column and table copied."""
        out = object.__new__(Plan)
        vars(out).update((k, _copy.copy(v)) for k, v in vars(self).items())
        return out

    def derive(self, **changes) -> "Plan":
        """An empty plan with this plan's metadata (``changes`` applied)
        and its default origin: what a pass appends its ops into."""
        meta = dict(
            algorithm=self.algorithm, nnodes=self.nnodes,
            nbytes=self.nbytes, chunk_sizes=self.chunk_sizes,
            chunk_offsets=self.chunk_offsets, ntrees=self.ntrees,
            legalized=self.legalized, notes=list(self.notes),
        )
        meta.update(changes)
        plan = Plan(**meta)
        plan.origin = self.origin
        return plan

    # -- reading ---------------------------------------------------------

    @property
    def ops(self) -> PlanOps:
        """The ops as a sequence of :class:`PlanOp` rows."""
        return PlanOps(self)

    def __len__(self) -> int:
        return len(self.kind_code)

    def __bool__(self) -> bool:
        """A plan is true even with no ops (``len`` counts them)."""
        return True

    def deps_of(self, i: int) -> tuple[int, ...]:
        offsets = self.dep_offsets
        return tuple(self.dep_ids[offsets[i]:offsets[i + 1]])

    def origin_of(self, i: int) -> str:
        return self.origins.get(i, self.origin)

    def chunks_of(self, i: int) -> tuple[int, ...]:
        """Every global chunk id op ``i`` touches, ascending."""
        chunk_set = self.chunk_sets.get(i)
        if chunk_set is not None:
            return tuple(sorted(chunk_set))
        chunk = self.chunk[i]
        return (chunk,) if chunk >= 0 else ()

    def chunk_lists(self) -> list[tuple[int, ...]]:
        """:meth:`chunks_of` for every op, in one pass (for a reader
        that visits each op's chunks more than once)."""
        out = [(c,) if c >= 0 else () for c in self.chunk]
        for i, chunk_set in self.chunk_sets.items():
            out[i] = tuple(sorted(chunk_set))
        return out

    def relay_ids(self) -> frozenset[int]:
        """Ids of the detour relay legs (see :meth:`is_relay`)."""
        return frozenset(
            i for i, fid in enumerate(self.flow_id)
            if fid and self.is_relay(i)
        )

    def endpoints(self, i: int) -> tuple[int, int]:
        """Op ``i``'s transfer ``(src, dst)``; ``(-1, -1)`` for COPY."""
        code = self.kind_code[i]
        if code == K_SEND:
            return self.rank[i], self.peer[i]
        if code == K_COPY:
            return -1, -1
        return self.peer[i], self.rank[i]

    def wire_of(self, i: int) -> tuple:
        """Op ``i``'s wire key (see :meth:`PlanOp.wire_key`)."""
        if self.kind_code[i] == K_COPY:
            raise PlanError(f"op {i} (copy) has no wire")
        src, dst = self.endpoints(i)
        return (src, dst, self.tree[i], PHASES[self.phase_code[i]],
                self.flows[self.flow_id[i]])

    def is_relay(self, i: int) -> bool:
        """True for a detour relay leg: a transfer at an intermediate
        GPU of its flow."""
        fid = self.flow_id[i]
        if not fid:
            return False
        code = self.kind_code[i]
        if code == K_COPY:
            return False
        flow = self.flows[fid]
        return self.rank[i] != flow[0 if code == K_SEND else 1]

    def label_of(self, i: int) -> str:
        """Op ``i``'s label: its string, or its template's text."""
        kind = self.label_kind[i]
        if not kind:
            return self.labels.get(i, "")
        base = kind & _TEMPLATE_MASK
        text = ""
        if base:
            flow = self.flows[self.flow_id[i]]
            src, dst = self.endpoints(i) if flow is None else flow
            text = _LABEL_TEXT[base].format(
                c=self.chunk[i], s=src, d=dst, r=self.rank[i],
                t=self.tree[i], a=self.label_arg[i],
                n=len(self.chunk_sets.get(i, ())),
            )
        relay = kind & ~_TEMPLATE_MASK
        if relay:
            text = f"{_RELAY_PREFIX[relay]} {text}".strip()
        return text

    def name_of(self, i: int) -> str:
        """Op ``i``'s diagnostic name (see :meth:`PlanOp.name`)."""
        desc = self.label_of(i) or _default_desc(
            OpKind.ALL[self.kind_code[i]], self.chunks_of(i), self.rank[i],
            self.peer[i], self.tree[i],
        )
        return f"op {i} [{desc}]"

    def _row(self, i: int) -> PlanOp:
        return PlanOp(
            op_id=i,
            rank=self.rank[i],
            kind=OpKind.ALL[self.kind_code[i]],
            chunk=self.chunk[i],
            chunk_set=self.chunk_sets.get(i, ()),
            peer=self.peer[i],
            nbytes=self.payload[i],
            lane=self.lane[i],
            tree=self.tree[i],
            tb=self.tbs[self.tb_id[i]],
            phase=PHASES[self.phase_code[i]],
            flow=self.flows[self.flow_id[i]],
            medium=self.media[self.medium_code[i]],
            deps=self.deps_of(i),
            label=self.label_of(i),
            origin=self.origin_of(i),
        )

    def program_ids(self) -> "OrderedDict[tuple[int, int], list[int]]":
        """Op ids grouped by ``(rank, tb index)``, each list in program
        (id) order; blocks in order of first op."""
        progs: OrderedDict[tuple[int, int], list[int]] = OrderedDict()
        for i, key in enumerate(zip(self.rank, self.tb_id)):
            prog = progs.get(key)
            if prog is None:
                progs[key] = [i]
            else:
                prog.append(i)
        return progs

    def _meta(self) -> tuple:
        return (
            self.algorithm, self.nnodes, self.nbytes, self.chunk_sizes,
            self.chunk_offsets, self.ntrees, self.legalized, self.notes,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Plan):
            return NotImplemented
        return (
            self._meta() == other._meta()
            and list(self.ops) == list(other.ops)
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"Plan({self.algorithm!r}, {self.nnodes} ranks, "
            f"{len(self)} ops)"
        )

    # -- serialization ---------------------------------------------------

    def _op_dicts(self) -> list[dict]:
        tbs = [_tb_to_json(tb) for tb in self.tbs]
        phases = [phase.value for phase in PHASES]
        flows = [None if f is None else list(f) for f in self.flows]
        chunk_sets = self.chunk_sets
        return [
            {
                "op_id": i,
                "rank": self.rank[i],
                "kind": OpKind.ALL[self.kind_code[i]],
                "chunk": self.chunk[i],
                "chunk_set": list(chunk_sets.get(i, ())),
                "peer": self.peer[i],
                "nbytes": self.payload[i],
                "lane": self.lane[i],
                "tree": self.tree[i],
                "tb": tbs[self.tb_id[i]],
                "phase": phases[self.phase_code[i]],
                "flow": flows[self.flow_id[i]],
                "medium": self.media[self.medium_code[i]],
                "deps": list(self.deps_of(i)),
                "label": self.label_of(i),
                "origin": self.origin_of(i),
            }
            for i in range(len(self))
        ]

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
            "ops": self._op_dicts(),
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
            try:
                plan._add_json_op(i, op_data)
            except OverflowError as exc:
                raise PlanError(f"plan op {i}: {exc}") from exc
        return plan

    def _add_json_op(self, i: int, data: dict) -> None:
        if not isinstance(data, dict):
            raise PlanError(
                f"plan op must be an object, got {type(data).__name__}"
            )
        try:
            kind = data["kind"]
            if kind not in OpKind.ALL:
                raise PlanError(f"unknown op kind {kind!r}")
            try:
                phase = Phase(data["phase"])
            except ValueError:
                raise PlanError(f"unknown phase {data['phase']!r}") from None
            op_id = int(data["op_id"])
            flow = data.get("flow")
            fields = dict(
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
                flow=(
                    (int(flow[0]), int(flow[1])) if flow is not None
                    else None
                ),
                medium=str(data.get("medium", "nvlink")),
                deps=tuple(int(d) for d in data.get("deps", ())),
                label=str(data.get("label", "")),
                origin=str(data.get("origin", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan op: {exc}") from exc
        if op_id != i:
            raise PlanError(
                f"plan JSON ops out of order: op {op_id} at index {i}"
            )
        if i == 0:
            self.origin = fields["origin"]
        self.add(**fields)

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
            f"{len(self)} ops, {self.nbytes / 1e6:.3f} MB"
            + (", legalized" if self.legalized else ""),
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        counts: dict[str, int] = {}
        for code in self.kind_code:
            kind = OpKind.ALL[code]
            counts[kind] = counts.get(kind, 0) + 1
        lines.append(
            "  ops: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        for (rank, tid), ids in self.program_ids().items():
            lines.append(f"  gpu {rank} tb {self.tbs[tid]!r}: {len(ids)} ops")
            for i in ids:
                deps = self.deps_of(i)
                deps = (
                    " deps=" + ",".join(str(d) for d in deps) if deps else ""
                )
                extra = ""
                flow = self.flows[self.flow_id[i]]
                if flow is not None:
                    extra += f" flow={flow[0]}->{flow[1]}"
                medium = self.media[self.medium_code[i]]
                if medium != "nvlink":
                    extra += f" via={medium}"
                lines.append(
                    f"    {self.name_of(i)} lane={self.lane[i]}{deps}{extra}"
                )
        return "\n".join(lines)
