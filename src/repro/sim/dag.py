"""Operation DAGs executed by the discrete-event simulator.

An :class:`Op` is one unit of work bound to a single resource: a chunk
transfer over a channel, a reduction/forwarding kernel on a GPU, or a block
of DNN compute.  Collective algorithms in :mod:`repro.collectives` compile
to these DAGs; :class:`~repro.sim.engine.DagSimulator` executes them.

A :class:`Dag` stores its ops column-wise, not as one :class:`Op` object
per op: one typed array per field, the resource as an index into a
per-DAG key table (keys in order of first use), deps in CSR form (an
offsets array plus one flat id array), and ``chunk_set`` and explicit
labels only on the ops that have them.  An op may store a :class:`Label`
template instead of a string; its text is formatted from the op's own
fields when the op is read.  Emitters write through :meth:`Dag.add`; the
embedding and the simulator read the columns directly.  :class:`Op` is
the read-only row type a reader gets from ``dag[i]``, ``dag.ops[i]`` or
iteration; each read builds a fresh row.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import lt, sub
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from repro.codes import PHASE_CODE, PHASES, Phase
from repro.errors import ScheduleError


class Label(enum.IntEnum):
    """Label templates an op can store instead of a string.

    The text is formatted from the op's own fields when the op is read,
    so an emitter formats no string per op.  A physical hop that copies a
    logical op's template names its own endpoints.
    """

    NONE = 0
    UP = 1
    DOWN = 2
    REDUCED = 3
    BARRIER = 4
    HOP = 5
    FORWARD = 6


_LABEL_TEXT = (
    "",
    "up c{chunk} {src}->{dst}",
    "down c{chunk} {src}->{dst}",
    "reduced c{chunk}@{src}",
    "phase barrier t{tree}",
    "hop{src}->{dst}",
    "forward@gpu{dst}",
)

#: Stored in the ``duration`` column for "no explicit duration".
_NO_DURATION = float("nan")


@dataclass(frozen=True, slots=True)
class Op:
    """One schedulable unit of work: the row type of a :class:`Dag`.

    Attributes:
        op_id: unique integer id within its DAG (its position).
        resource: key of the resource this op occupies (see
            :mod:`repro.sim.resources`).  Channel keys look like
            ``("chan", src, dst, lane)``; processor keys like ``("gpu", i)``.
        nbytes: payload size; channels derive service time from it.
        duration: explicit service time; used by processor resources and, if
            not ``None``, overrides the channel's own alpha-beta timing.
        deps: op ids that must complete before this op may start.
        src / dst: endpoints of a transfer (``-1`` for non-transfers).
        chunk: logical chunk index within the collective (``-1`` if n/a).
        chunk_set: every chunk id an *aggregated* transfer carries (empty
            for ordinary single-chunk ops — then ``chunk`` alone applies).
            Used by algorithms like recursive halving-doubling that move
            many chunks in one message.
        phase: collective/training phase, for queries and plots.
        tree: tree id for multi-tree algorithms (0 for single tree / ring).
        layer: owning DNN layer index (``-1`` if not layer-related).
        label: free-form tag for debugging and trace inspection.
    """

    op_id: int
    resource: Hashable
    nbytes: float = 0.0
    duration: float | None = None
    deps: tuple[int, ...] = ()
    src: int = -1
    dst: int = -1
    chunk: int = -1
    chunk_set: tuple[int, ...] = ()
    phase: Phase = Phase.OTHER
    tree: int = 0
    layer: int = -1
    label: str = ""

    def chunks_carried(self) -> tuple[int, ...]:
        """Chunk ids this op moves (``chunk_set`` or the single chunk)."""
        if self.chunk_set:
            return self.chunk_set
        if self.chunk >= 0:
            return (self.chunk,)
        return ()


class Dag:
    """A builder/holder for a set of ops forming a DAG.

    Columns (read them freely; write only through :meth:`add`,
    :meth:`add_from` and :meth:`set_deps`):

    - ``keys``: resource key table, in order of first use;
      ``resource_id[i]`` indexes it.
    - ``nbytes``, ``duration`` (NaN stands for ``None``), ``src``,
      ``dst``, ``chunk``, ``tree``, ``layer``, ``phase_code`` (index
      into :data:`PHASES`) and ``label_kind`` (a :class:`Label`).
    - ``dep_offsets`` / ``dep_ids``: op ``i``'s deps are
      ``dep_ids[dep_offsets[i]:dep_offsets[i + 1]]``.
    - ``chunk_sets`` / ``labels``: op id -> value, only for the ops that
      have one.

    The DAG is also its own read-only op sequence (``dag.ops is dag``):
    ``len``, indexing and slicing return :class:`Op` rows.
    """

    __slots__ = (
        "keys", "_key_ids", "resource_id", "nbytes",
        "duration", "src", "dst", "chunk", "tree", "layer", "phase_code",
        "label_kind", "dep_offsets", "dep_ids", "chunk_sets", "labels",
    )

    def __init__(self) -> None:
        self.keys: list[Hashable] = []
        self._key_ids: dict[Hashable, int] = {}
        self.resource_id = array("i")
        self.nbytes = array("d")
        self.duration = array("d")
        self.src = array("i")
        self.dst = array("i")
        self.chunk = array("i")
        self.tree = array("i")
        self.layer = array("i")
        self.phase_code = array("b")
        self.label_kind = array("b")
        self.dep_offsets = array("i", [0])
        self.dep_ids = array("i")
        self.chunk_sets: dict[int, tuple[int, ...]] = {}
        self.labels: dict[int, str] = {}

    # -- writing ---------------------------------------------------------

    def _key_id(self, resource: Hashable) -> int:
        rid = self._key_ids.get(resource)
        if rid is None:
            rid = self._key_ids[resource] = len(self.keys)
            self.keys.append(resource)
        return rid

    def add(
        self,
        resource: Hashable,
        *,
        nbytes: float = 0.0,
        duration: float | None = None,
        deps: Iterable[int] = (),
        src: int = -1,
        dst: int = -1,
        chunk: int = -1,
        chunk_set: Iterable[int] = (),
        phase: Phase = Phase.OTHER,
        tree: int = 0,
        layer: int = -1,
        label: str | Label = "",
    ) -> int:
        """Append an op and return its id.

        ``label`` is a string, or a :class:`Label` template whose text is
        formatted from the op's fields when the op is read.  The
        ``duration`` column stores ``None`` as NaN, so a NaN duration
        also means "no explicit duration".
        """
        op_id = len(self.phase_code)
        rid = self._key_ids.get(resource)
        if rid is None:
            rid = self._key_id(resource)
        self.resource_id.append(rid)
        self.nbytes.append(nbytes)
        self.duration.append(_NO_DURATION if duration is None else duration)
        self.src.append(src)
        self.dst.append(dst)
        self.chunk.append(chunk)
        self.tree.append(tree)
        self.layer.append(layer)
        self.phase_code.append(PHASE_CODE[phase])
        if isinstance(label, Label):
            self.label_kind.append(label)
        else:
            self.label_kind.append(0)
            if label:
                self.labels[op_id] = label
        if chunk_set:
            chunk_set = tuple(chunk_set)
            if chunk_set:
                self.chunk_sets[op_id] = chunk_set
        self.dep_ids.extend(deps)
        self.dep_offsets.append(len(self.dep_ids))
        return op_id

    def add_from(
        self,
        other: "Dag",
        i: int,
        resource: Hashable,
        deps: Iterable[int],
        *,
        src: int,
        dst: int,
        label: Label = Label.NONE,
    ) -> int:
        """Append a copy of ``other``'s op ``i`` on ``resource`` with new
        ``deps`` and endpoints; return its id.

        Every other field is copied, ``chunk_set`` and the label (string
        or template) included; ``label`` is the template an op without
        one gets.  This is how the embedding maps a logical op to its
        physical ops without building a row.
        """
        op_id = len(self.phase_code)
        rid = self._key_ids.get(resource)
        if rid is None:
            rid = self._key_id(resource)
        self.resource_id.append(rid)
        self.nbytes.append(other.nbytes[i])
        self.duration.append(other.duration[i])
        self.src.append(src)
        self.dst.append(dst)
        self.chunk.append(other.chunk[i])
        self.tree.append(other.tree[i])
        self.layer.append(other.layer[i])
        self.phase_code.append(other.phase_code[i])
        kind = other.label_kind[i]
        if not kind:
            text = other.labels.get(i)
            if text is not None:
                self.labels[op_id] = text
            else:
                kind = label
        self.label_kind.append(kind)
        chunk_set = other.chunk_sets.get(i)
        if chunk_set is not None:
            self.chunk_sets[op_id] = chunk_set
        self.dep_ids.extend(deps)
        self.dep_offsets.append(len(self.dep_ids))
        return op_id

    def set_deps(self, deps: Mapping[int, Iterable[int]]) -> None:
        """Replace the deps of every op in ``deps`` (op id -> new deps),
        rebuilding the CSR arrays once."""
        offsets, ids = self.dep_offsets, self.dep_ids
        new_offsets, new_ids = array("i", [0]), array("i")
        for i in range(len(self)):
            if i in deps:
                new_ids.extend(deps[i])
            else:
                new_ids.extend(ids[offsets[i]:offsets[i + 1]])
            new_offsets.append(len(new_ids))
        self.dep_offsets, self.dep_ids = new_offsets, new_ids

    def remap_resources(self, fn: Callable[[Hashable], Hashable]) -> "Dag":
        """A DAG with every resource key ``k`` replaced by ``fn(k)``.

        Keys that map to one key merge, in order of first use; the other
        columns are copied.  If ``fn`` changes no key, ``self`` is
        returned.
        """
        new_keys = [fn(key) for key in self.keys]
        if new_keys == self.keys:
            return self
        out = Dag()
        remap = array("i", map(out._key_id, new_keys))
        out.resource_id = array("i", map(remap.__getitem__, self.resource_id))
        for name in (
            "nbytes", "duration", "src", "dst", "chunk", "tree", "layer",
            "phase_code", "label_kind", "dep_offsets", "dep_ids",
        ):
            setattr(out, name, getattr(self, name)[:])
        out.chunk_sets = dict(self.chunk_sets)
        out.labels = dict(self.labels)
        return out

    # -- reading ---------------------------------------------------------

    @property
    def ops(self) -> "Dag":
        """The ops as a sequence of :class:`Op` rows: the DAG itself."""
        return self

    def __len__(self) -> int:
        return len(self.phase_code)

    def __iter__(self) -> Iterator[Op]:
        return map(self._row, range(len(self)))

    def __getitem__(self, index):
        """Row ``index`` as an :class:`Op`; a slice gives a list of rows."""
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        return self._row(self._position(index))

    def __repr__(self) -> str:
        return f"Dag({len(self)} ops, {len(self.keys)} resource keys)"

    def _position(self, index: int) -> int:
        n = len(self)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError(f"op index {index} out of range for {n} ops")
        return i

    def _deps_of(self, i: int) -> tuple[int, ...]:
        return tuple(self.dep_ids[self.dep_offsets[i]:self.dep_offsets[i + 1]])

    def label_of(self, i: int) -> str:
        """Op ``i``'s label: its string, or its template's text."""
        kind = self.label_kind[i]
        if kind:
            return _LABEL_TEXT[kind].format(
                src=self.src[i], dst=self.dst[i],
                chunk=self.chunk[i], tree=self.tree[i],
            )
        return self.labels.get(i, "")

    def _row(self, i: int) -> Op:
        duration = self.duration[i]
        return Op(
            op_id=i,
            resource=self.keys[self.resource_id[i]],
            nbytes=self.nbytes[i],
            duration=None if duration != duration else duration,
            deps=self._deps_of(i),
            src=self.src[i],
            dst=self.dst[i],
            chunk=self.chunk[i],
            chunk_set=self.chunk_sets.get(i, ()),
            phase=PHASES[self.phase_code[i]],
            tree=self.tree[i],
            layer=self.layer[i],
            label=self.label_of(i),
        )

    def children(self) -> tuple[array, array]:
        """Every op's dependents in CSR form: ``(offsets, ids)``.

        Op ``i``'s children, ascending, are
        ``ids[offsets[i]:offsets[i + 1]]``; an op that lists a dep twice
        is its child twice.  Both are ``array('i')``, built by a counting
        sort of the deps whose fill cursors are an ``array('i')`` too; the
        only per-op list holds child counts, small ints Python shares, so
        no int object per op is kept.
        """
        deps = self.dep_ids
        count = [0] * len(self)
        for d in deps:
            count[d] += 1
        offsets = array("i", [0])
        offsets.extend(accumulate(count))
        del count
        fill = array("i", offsets)
        ids = array("i", [0]) * len(deps)
        for d, i in zip(deps, self._owners()):
            at = fill[d]
            ids[at] = i
            fill[d] = at + 1
        return offsets, ids

    def _owners(self) -> Iterator[int]:
        """The op owning each entry of ``dep_ids``, in order.

        Entry ``p``'s owner is the number of ops whose deps end at or
        before ``p``, a running sum of per-entry counts; the counts are
        small ints, so no int is built per op.
        """
        ends = [0] * (len(self.dep_ids) + 1)
        for end in islice(self.dep_offsets, 1, None):
            ends[end] += 1
        return accumulate(ends)

    def validate(self) -> None:
        """Check all deps reference other existing ops and form no cycle.

        Raises:
            ScheduleError: on dangling or self deps, or cycles.
        """
        n = len(self)
        ids = self.dep_ids
        # Every dep naming an earlier op rules out all three faults: the
        # ids are then a topological order.
        if not ids or (min(ids) >= 0 and all(map(lt, ids, self._owners()))):
            return
        for d, i in zip(ids, self._owners()):
            if not 0 <= d < n:
                raise ScheduleError(f"op {i} depends on missing op {d}")
            if d == i:
                raise ScheduleError(f"op {i} depends on itself")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> list[int]:
        """Return a topological order of op ids.

        Raises:
            ScheduleError: if the dependency graph has a cycle.
        """
        n = len(self)
        offsets = self.dep_offsets
        indegree = list(map(sub, islice(offsets, 1, None), offsets))
        kid_offsets, kid_ids = self.children()
        frontier = [i for i in range(n) if indegree[i] == 0]
        order: list[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for child in kid_ids[kid_offsets[node]:kid_offsets[node + 1]]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if len(order) != n:
            raise ScheduleError("dependency cycle detected in DAG")
        return order

    def resources(self) -> set[Hashable]:
        """All resource keys referenced by ops in this DAG.

        Built by inserting the keys in order of first use, so the set
        iterates exactly like ``{op.resource for op in dag}``.
        """
        return set(self.keys)
