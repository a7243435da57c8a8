"""Event-driven executor for operation DAGs.

The executor is deliberately simple and deterministic:

- every resource serves at most one op at a time,
- an op becomes *ready* when all its dependencies complete,
- a free resource starts the op that became ready earliest (ties broken by
  op id), i.e. FIFO service within a resource,
- a transfer occupies its channel for the full ``alpha + beta * n``
  (store-and-forward at chunk granularity — the same abstraction NCCL-style
  pipelined collectives and the paper's timing diagrams use).

Determinism matters: schedules are compared across algorithms, so two runs
of the same DAG must produce identical timings.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import not_, sub
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.errors import DeadlockError, SimulationError
from repro.sim.dag import Dag, Op, Phase
from repro.sim.resources import Channel, Processor, Resource
from repro.sim.trace import TraceRecord


@dataclass
class SimResult:
    """Timing outcome of executing a DAG.

    Attributes:
        start: per-op start times, indexed by op id.
        finish: per-op finish times, indexed by op id.
        makespan: completion time of the last op.
        order: op ids in the order their service started.
        ops: the simulated DAG itself (``dag.ops is dag``), read as a
            sequence of :class:`~repro.sim.dag.Op` rows; shared, not
            copied.  :attr:`trace` reads resources and labels from its
            columns.
    """

    start: list[float]
    finish: list[float]
    makespan: float
    order: list[int]
    ops: Dag

    @cached_property
    def trace(self) -> list[TraceRecord]:
        """Chronological list of :class:`TraceRecord`, one per op.

        Derived from :attr:`order`, :attr:`ops`, :attr:`start` and
        :attr:`finish` on first access and cached, so a run whose caller
        reads only timings never builds it.
        """
        dag, start, finish = self.ops, self.start, self.finish
        keys, resource_id = dag.keys, dag.resource_id
        return [
            TraceRecord(
                op_id=op_id,
                resource=keys[resource_id[op_id]],
                start=start[op_id],
                finish=finish[op_id],
                label=dag.label_of(op_id),
            )
            for op_id in self.order
        ]

    def finish_of(self, ops: Iterable[Op]) -> float:
        """Latest finish time over ``ops`` (0.0 for an empty set)."""
        return max((self.finish[op.op_id] for op in ops), default=0.0)

    def first_finish_of(self, ops: Iterable[Op]) -> float:
        """Earliest finish time over ``ops``.

        Raises:
            SimulationError: if ``ops`` is empty.
        """
        times = [self.finish[op.op_id] for op in ops]
        if not times:
            raise SimulationError("first_finish_of() called with no ops")
        return min(times)

    def busy_time(self, resource: Hashable) -> float:
        """Total occupied time of a resource across the run."""
        return sum(
            rec.finish - rec.start for rec in self.trace if rec.resource == resource
        )


class DagSimulator:
    """Executes :class:`~repro.sim.dag.Dag` instances on a fixed resource set.

    Args:
        resources: mapping from resource key to resource object.  Every
            resource referenced by a DAG must be present.
    """

    def __init__(self, resources: Mapping[Hashable, Resource]):
        self._resources = dict(resources)

    @property
    def resources(self) -> dict[Hashable, Resource]:
        """The resource map (shared, not copied — treat as read-only)."""
        return self._resources

    def run(self, dag: Dag, *, validate: bool = True) -> SimResult:
        """Execute ``dag`` and return per-op timings.

        The hot loop: pinned bit-exact against :meth:`run_reference` by
        the regression tests, so optimizations here must be provably
        order-preserving.  Events are still processed strictly one at a
        time — batching same-timestamp completions would change which
        ready op a freed resource serves first (the FIFO pop would see
        children of *later* same-time events), breaking determinism
        against the reference.

        Resources are numbered, so the loop indexes lists instead of
        hashing resource keys; each op's resource number comes from the
        DAG's key column.  Children are built once from the CSR deps, and
        every op's service time is computed in one pass before the loop
        (see :func:`_service_times`).  Starting an op changes only its
        own resource, so when one completion lets a single resource
        start, the start needs no ordering.  When several resources start
        at once, the service order (hence the trace) must follow the
        reference, which starts them in the iteration order of the set
        of touched resource keys; that set is rebuilt for those events
        only.  The loop records only the service-start order (one append
        per op); :attr:`SimResult.trace` is derived from it when first
        read.  No :class:`~repro.sim.dag.Op` row is built, except to
        price an op the one pass could not (see :func:`_service_times`).

        Args:
            dag: the operation DAG to execute.
            validate: run :meth:`Dag.validate` first (disable only for a
                DAG the caller has just validated).

        Raises:
            SimulationError: if an op references an unknown resource.
            DeadlockError: if execution stalls before all ops complete.
        """
        if validate:
            dag.validate()
        resources = self._resources
        used = dag.resources()
        missing = used - resources.keys()
        if missing:
            raise SimulationError(f"DAG references unknown resources: {missing!r}")

        n = len(dag)
        start = [0.0] * n
        finish = [0.0] * n
        order: list[int] = []
        if n == 0:
            return SimResult(
                start=start, finish=finish, makespan=0.0, order=order, ops=dag
            )

        # Numbered in ``used``'s iteration order: the order in which the
        # reference starts resources at time zero.
        key_of = list(used)
        rid = {key: i for i, key in enumerate(key_of)}
        table = [rid[key] for key in dag.keys]
        rid_of = list(map(table.__getitem__, dag.resource_id))
        offsets = dag.dep_offsets
        pending = list(map(sub, offsets[1:], offsets[:-1]))
        children = dag.children()
        service_of = _service_times(dag, [resources[key] for key in dag.keys])

        # Per-resource FIFO of ready ops: heap of (ready_time, op_id).
        ready: list[list[tuple[float, int]]] = [[] for _ in key_of]
        busy = [False] * len(key_of)

        # Event heap of op completions: (time, op_id).  Every started op
        # completes once, so ``order`` also counts completions.
        events: list[tuple[float, int]] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        order_append = order.append

        def price(op_id: int) -> float:
            """Service time of an op the one pass left unpriced: the
            resource's own method raises (or prices a foreign resource
            type) exactly where the reference calls it."""
            service = resources[key_of[rid_of[op_id]]].service_time(dag[op_id])
            if service < 0:
                raise SimulationError(f"op {op_id} has negative service time")
            return service

        def begin(r: int, now: float) -> None:
            """Start the next ready op on idle resource ``r``."""
            _, op_id = heappop(ready[r])
            service = service_of[op_id]
            if service < 0:
                service = price(op_id)
            busy[r] = True
            done = now + service
            start[op_id] = now
            finish[op_id] = done
            order_append(op_id)
            heappush(events, (done, op_id))

        for op_id in compress(range(n), map(not_, pending)):
            heappush(ready[rid_of[op_id]], (0.0, op_id))
        for r, rheap in enumerate(ready):
            if rheap:
                begin(r, 0.0)

        while events:
            now, op_id = heappop(events)
            r = rid_of[op_id]
            busy[r] = False
            # Resources that start an op now: ``first``, then ``more``.
            first = r if ready[r] else -1
            more: list[int] | None = None
            kids = children[op_id]
            for child_id in kids:
                left = pending[child_id] - 1
                pending[child_id] = left
                if left == 0:
                    c = rid_of[child_id]
                    heappush(ready[c], (now, child_id))
                    if c == first or busy[c]:
                        continue
                    if first < 0:
                        first = c
                    elif more is None:
                        more = [c]
                    elif c not in more:
                        more.append(c)
            if more is None:
                if first >= 0:  # begin(first, now), inlined
                    _, next_id = heappop(ready[first])
                    service = service_of[next_id]
                    if service < 0:
                        service = price(next_id)
                    busy[first] = True
                    done = now + service
                    start[next_id] = now
                    finish[next_id] = done
                    order_append(next_id)
                    heappush(events, (done, next_id))
                continue
            starting = {first, *more}
            touched = {key_of[r]}
            for child_id in kids:
                if pending[child_id] == 0:
                    touched.add(key_of[rid_of[child_id]])
            for key in touched:
                c = rid[key]
                if c in starting:
                    begin(c, now)

        if len(order) != n:
            raise DeadlockError(
                f"simulation stalled: {len(order)}/{n} ops completed"
            )
        return SimResult(
            start=start,
            finish=finish,
            makespan=max(finish),
            order=order,
            ops=dag,
        )

    def run_reference(self, dag: Dag, *, validate: bool = True) -> SimResult:
        """The pre-optimization event loop, kept as the oracle.

        :meth:`run` must produce bit-identical ``start`` / ``finish`` /
        ``makespan`` and an identical service order, hence an identical
        trace.  The loop is the original one except that it records
        each op id in service order, like :meth:`run`, instead of
        building a :class:`TraceRecord`, and that it reads the DAG's
        :class:`~repro.sim.dag.Op` rows from a list built once up front,
        as the original read its op list.  The hot-path regression tests
        and the ``sim_events`` benchmark's "before" number both come
        from here.  Do not optimize this method.
        """
        if validate:
            dag.validate()
        missing = dag.resources() - self._resources.keys()
        if missing:
            raise SimulationError(f"DAG references unknown resources: {missing!r}")

        ops = list(dag)
        n = len(ops)
        start = [0.0] * n
        finish = [0.0] * n
        order: list[int] = []
        if n == 0:
            return SimResult(
                start=start,
                finish=finish,
                makespan=0.0,
                order=order,
                ops=dag,
            )

        pending = [len(op.deps) for op in ops]
        children: list[list[int]] = [[] for _ in range(n)]
        for op in ops:
            for d in op.deps:
                children[d].append(op.op_id)

        ready: dict[Hashable, list[tuple[float, int]]] = {
            key: [] for key in dag.resources()
        }
        busy: dict[Hashable, bool] = {key: False for key in dag.resources()}
        events: list[tuple[float, int]] = []
        completed = 0

        def start_next(resource: Hashable, now: float) -> None:
            if busy[resource] or not ready[resource]:
                return
            _, op_id = heapq.heappop(ready[resource])
            op = ops[op_id]
            service = self._resources[resource].service_time(op)
            if service < 0:
                raise SimulationError(f"op {op_id} has negative service time")
            busy[resource] = True
            start[op_id] = now
            finish[op_id] = now + service
            order.append(op_id)
            heapq.heappush(events, (now + service, op_id))

        for op in ops:
            if pending[op.op_id] == 0:
                heapq.heappush(ready[op.resource], (0.0, op.op_id))
        for key in ready:
            start_next(key, 0.0)

        while events:
            now, op_id = heapq.heappop(events)
            op = ops[op_id]
            busy[op.resource] = False
            completed += 1
            touched = {op.resource}
            for child_id in children[op_id]:
                pending[child_id] -= 1
                if pending[child_id] == 0:
                    child = ops[child_id]
                    heapq.heappush(ready[child.resource], (now, child_id))
                    touched.add(child.resource)
            for key in touched:
                start_next(key, now)

        if completed != n:
            raise DeadlockError(
                f"simulation stalled: {completed}/{n} ops completed"
            )
        return SimResult(
            start=start,
            finish=finish,
            makespan=max(finish),
            order=order,
            ops=dag,
        )


def _service_times(dag: Dag, servers: Sequence[Resource]) -> list[float]:
    """Every op's service time in one pass over the DAG's columns.

    ``servers[k]`` serves the ops whose resource is ``dag.keys[k]``.  A
    :class:`Channel` or :class:`Processor` op gets exactly the float
    expression of its ``service_time``.  An op whose ``service_time``
    would raise (no duration on a processor, a negative size on a
    channel) or return a negative time, and every op on another resource
    type, gets ``-1.0``: :meth:`DagSimulator.run` then calls the
    resource's own method when the op starts, as the reference does.
    """
    params: list[tuple[int, float, float]] = []
    for server in servers:
        if type(server) is Channel:
            params.append((1, server.alpha, server.beta))
        elif type(server) is Processor:
            params.append((2, server.speedup, 0.0))
        else:
            params.append((0, 0.0, 0.0))
    service: list[float] = []
    append = service.append
    for r, nbytes, duration in zip(dag.resource_id, dag.nbytes, dag.duration):
        kind, a, b = params[r]
        if duration == duration:  # not NaN: an explicit duration
            if kind == 1:
                append(duration)
            elif kind == 2:
                append(duration / a)
            else:
                append(-1.0)
        elif kind == 1 and nbytes >= 0:
            append(a + b * nbytes)
        else:
            append(-1.0)
    return service


def makespan(
    dag: Dag, resources: Mapping[Hashable, Resource], *, validate: bool = True
) -> float:
    """Convenience wrapper: simulate ``dag`` and return only the makespan."""
    return DagSimulator(resources).run(dag, validate=validate).makespan


def phase_finish_times(dag: Dag, result: SimResult) -> dict[Phase, float]:
    """Latest finish time per phase present in the DAG."""
    out: dict[Phase, float] = {}
    for op in dag.ops:
        t = result.finish[op.op_id]
        if op.phase not in out or t > out[op.phase]:
            out[op.phase] = t
    return out


def chunk_completion_times(
    dag: Dag,
    result: SimResult,
    *,
    phase: Phase = Phase.BROADCAST,
    key: Callable[[Op], bool] | None = None,
) -> dict[int, float]:
    """Completion time of each chunk's last op in ``phase``.

    For an AllReduce DAG this gives, per chunk, the instant the reduced
    chunk is available everywhere — the quantity gradient queuing consumes.
    """
    out: dict[int, float] = {}
    for op in dag.ops:
        if op.phase is not phase or op.chunk < 0:
            continue
        if key is not None and not key(op):
            continue
        t = result.finish[op.op_id]
        if op.chunk not in out or t > out[op.chunk]:
            out[op.chunk] = t
    return out
