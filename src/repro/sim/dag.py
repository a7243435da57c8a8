"""Operation DAGs executed by the discrete-event simulator.

An :class:`Op` is one unit of work bound to a single resource: a chunk
transfer over a channel, a reduction/forwarding kernel on a GPU, or a block
of DNN compute.  Collective algorithms in :mod:`repro.collectives` compile
to these DAGs; :class:`~repro.sim.engine.DagSimulator` executes them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Iterator

from repro.errors import ScheduleError


class Phase(enum.Enum):
    """Which phase of a collective (or of training) an op belongs to."""

    REDUCE = "reduce"
    BROADCAST = "broadcast"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_GATHER = "all_gather"
    FORWARD = "forward"
    BACKWARD = "backward"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class Op:
    """One schedulable unit of work.

    Attributes:
        op_id: unique integer id within its DAG.
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

    def with_deps(self, deps: Iterable[int]) -> "Op":
        """Return a copy of this op with ``deps`` replaced."""
        return replace(self, deps=tuple(deps))


@dataclass
class Dag:
    """A mutable builder/holder for a set of ops forming a DAG."""

    ops: list[Op] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __getitem__(self, op_id: int) -> Op:
        op = self.ops[op_id]
        if op.op_id != op_id:
            raise ScheduleError(f"op at index {op_id} has id {op.op_id}")
        return op

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
        label: str = "",
    ) -> int:
        """Append an op and return its id."""
        op_id = len(self.ops)
        self.ops.append(
            Op(
                op_id=op_id,
                resource=resource,
                nbytes=nbytes,
                duration=duration,
                deps=tuple(deps),
                src=src,
                dst=dst,
                chunk=chunk,
                chunk_set=tuple(chunk_set),
                phase=phase,
                tree=tree,
                layer=layer,
                label=label,
            )
        )
        return op_id

    def extend(self, other: "Dag") -> dict[int, int]:
        """Append all ops of ``other``, remapping ids; returns the id map."""
        id_map: dict[int, int] = {}
        for op in other.ops:
            new_deps = tuple(id_map[d] for d in op.deps)
            new_id = len(self.ops)
            self.ops.append(replace(op, op_id=new_id, deps=new_deps))
            id_map[op.op_id] = new_id
        return id_map

    def validate(self) -> None:
        """Check ids are dense and all deps reference earlier-created ops.

        Raises:
            ScheduleError: on dangling or self deps, or id mismatches.
        """
        n = len(self.ops)
        for i, op in enumerate(self.ops):
            if op.op_id != i:
                raise ScheduleError(f"op at index {i} has id {op.op_id}")
            for d in op.deps:
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
        n = len(self.ops)
        indegree = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for op in self.ops:
            indegree[op.op_id] = len(op.deps)
            for d in op.deps:
                children[d].append(op.op_id)
        frontier = [i for i in range(n) if indegree[i] == 0]
        order: list[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if len(order) != n:
            raise ScheduleError("dependency cycle detected in DAG")
        return order

    def resources(self) -> set[Hashable]:
        """All resource keys referenced by ops in this DAG."""
        return {op.resource for op in self.ops}

    def select(self, **criteria: object) -> list[Op]:
        """Return ops whose attributes match all keyword criteria.

        Example::

            dag.select(phase=Phase.BROADCAST, chunk=0)
        """
        result = []
        for op in self.ops:
            if all(getattr(op, key) == value for key, value in criteria.items()):
                result.append(op)
        return result
