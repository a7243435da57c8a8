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
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice
from operator import not_, sub
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import DeadlockError, SimulationError
from repro.sim.dag import Dag, Op
from repro.sim.resources import Channel, Processor, Resource
from repro.sim.trace import TraceRecord


@dataclass
class SimResult:
    """Timing outcome of executing a DAG.

    :meth:`DagSimulator.run` returns typed columns, so a result keeps no
    Python object per op; :meth:`DagSimulator.run_reference` returns
    lists with the same values.

    Attributes:
        start: per-op start times, indexed by op id (``array('d')``).
        finish: per-op finish times, indexed by op id (``array('d')``).
        makespan: completion time of the last op.
        order: op ids in the order their service started
            (``array('i')``).
        ops: the simulated DAG itself (``dag.ops is dag``), read as a
            sequence of :class:`~repro.sim.dag.Op` rows; shared, not
            copied.  :attr:`trace` reads resources and labels from its
            columns.
    """

    start: Sequence[float]
    finish: Sequence[float]
    makespan: float
    order: Sequence[int]
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

    def first_finish_of(self, ops: Iterable[Op]) -> float:
        """Earliest finish time over ``ops``.

        Raises:
            SimulationError: if ``ops`` is empty.
        """
        times = [self.finish[op.op_id] for op in ops]
        if not times:
            raise SimulationError("first_finish_of() called with no ops")
        return min(times)


#: Resource states in :meth:`DagSimulator.run` (an op id means "idle,
#: starts that op next").
IDLE = -1
BUSY = -2
QUEUED = -3
#: "More than one resource starts an op now", in :meth:`DagSimulator.run`
#: (distinct from every state and from "none": -1).
SEVERAL = -4


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

        The run keeps no Python object per op.  ``start``, ``finish``
        and ``order`` are typed arrays; children come from
        :meth:`Dag.children` in CSR form; every op's service time is
        written in one pass before the loop (see :func:`_service_times`)
        into the array that then receives its finish time.  The per-op
        lists hold only small ints (resource numbers, dep and child
        counts), which Python shares, so each costs 8 B/op of pointers.
        What the loop builds per op (a heap entry while the op waits,
        the floats and ints it reads out of the arrays) is freed as the
        run goes.  Resources are numbered, so the loop indexes lists
        instead of hashing resource keys.  An idle resource's ready heap
        is empty, so the first op that becomes ready on one is held and
        started without touching the heap.  Starting an op changes only
        its own resource, so when one completion lets a single resource
        start, the start needs no ordering; that case starts its op
        inline, a copy of the start block of the outer loop.  When
        several resources start at once, the service order (hence the
        trace) must follow the reference, which starts them in the
        iteration order of the set of touched resource keys; that order
        is computed once per distinct sequence of touched resources and
        cached for the run (a dozen sequences on the Fig. 13 DAGs,
        against thousands of such completions).
        :attr:`SimResult.trace` is derived from ``order`` when first
        read.  No :class:`~repro.sim.dag.Op` row is built, except to
        price an op the one pass could not (see :func:`_service_times`).

        Args:
            dag: the operation DAG to execute.
            validate: run :meth:`Dag.validate` first (disable only for a
                DAG the caller has just validated).

        Raises:
            SimulationError: if an op references an unknown resource, or
                its resource rejects it (see :mod:`repro.sim.resources`).
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
        if n == 0:
            return SimResult(
                start=array("d"), finish=array("d"), makespan=0.0,
                order=array("i"), ops=dag,
            )

        # Numbered in ``used``'s iteration order: the order in which the
        # reference starts resources at time zero.
        key_of = list(used)
        rid = {key: i for i, key in enumerate(key_of)}
        table = [rid[key] for key in dag.keys]
        # Each op's service time, replaced by its finish time when it
        # starts.
        finish = _service_times(dag, [resources[key] for key in dag.keys])
        child_offsets, child_ids = dag.children()
        # The hottest reads stay lists of small ints, which hold no int
        # object per op: resource numbers (shared with ``table``), dep
        # counts and child counts.
        rid_of = list(map(table.__getitem__, dag.resource_id))
        offsets = dag.dep_offsets
        pending = list(map(sub, islice(offsets, 1, None), offsets))
        nkids = list(map(sub, islice(child_offsets, 1, None), child_offsets))
        start = array("d", [0.0]) * n
        order = array("i", [0]) * n

        # Per-resource FIFO of ready ops: heap of (ready_time, op_id).
        ready: list[list[tuple[float, int]]] = [[] for _ in key_of]
        # Per resource: BUSY, IDLE, QUEUED (just freed with ops in its
        # heap), or the op it starts next.  An idle resource's heap is
        # empty, so the first op that becomes ready on one is the next it
        # serves: it is held here instead of pushed.
        state = [IDLE] * len(key_of)
        # Resource numbers in the order a completion touched them -> the
        # same resources in the iteration order of the set of their keys.
        touch_order: dict[tuple[int, ...], list[int]] = {}

        # Event heap of op completions: (time, op_id).  Every started op
        # completes once, so ``started`` also counts completions.
        events: list[tuple[float, int]] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Item stores through a memoryview skip the array's argument
        # parsing.
        start_at = memoryview(start)
        finish_at = memoryview(finish)
        order_at = memoryview(order)
        started = 0

        def price(op_id: int) -> float:
            """Service time of an op the one pass left unpriced: the
            resource's own method raises (or prices a foreign resource
            type) exactly where the reference calls it."""
            service = resources[key_of[rid_of[op_id]]].service_time(dag[op_id])
            if service < 0:
                raise SimulationError(f"op {op_id} has negative service time")
            return service

        # Ops ready at time zero, in id order: each heap is sorted.
        for op_id in compress(range(n), map(not_, pending)):
            ready[rid_of[op_id]].append((0.0, op_id))
        # At time zero every resource with a ready op starts, in key
        # order; later, the resources one completion lets start.
        now = 0.0
        starts: Iterable[int] = range(len(key_of))
        while True:
            for c in starts:
                op_id = state[c]
                if op_id < 0:
                    if op_id == BUSY or not ready[c]:
                        continue
                    _, op_id = heappop(ready[c])
                service = finish[op_id]
                if service < 0:
                    service = price(op_id)
                state[c] = BUSY
                done = now + service
                start_at[op_id] = now
                finish_at[op_id] = done
                order_at[started] = op_id
                started += 1
                heappush(events, (done, op_id))

            first = -1
            while events:
                now, op_id = heappop(events)
                r = rid_of[op_id]
                # ``first`` is the resource that starts an op now, -1 if
                # none does and SEVERAL if more than one does.
                if ready[r]:
                    state[r] = QUEUED
                    first = r
                else:
                    state[r] = IDLE
                    first = -1
                k = nkids[op_id]
                if k == 1:
                    kids = (child_ids[child_offsets[op_id]],)
                elif k:
                    kids = child_ids[
                        child_offsets[op_id]:child_offsets[op_id + 1]
                    ]
                else:
                    kids = ()
                for child_id in kids:
                    left = pending[child_id] - 1
                    pending[child_id] = left
                    if left:
                        continue
                    c = rid_of[child_id]
                    if state[c] != IDLE:
                        heappush(ready[c], (now, child_id))
                    else:
                        state[c] = child_id
                        first = c if first == -1 else SEVERAL
                if first >= 0:  # the start block above, for one resource
                    op_id = state[first]
                    if op_id < 0:  # QUEUED
                        _, op_id = heappop(ready[first])
                    service = finish[op_id]
                    if service < 0:
                        service = price(op_id)
                    state[first] = BUSY
                    done = now + service
                    start_at[op_id] = now
                    finish_at[op_id] = done
                    order_at[started] = op_id
                    started += 1
                    heappush(events, (done, op_id))
                elif first == SEVERAL:
                    break
            if first != SEVERAL:
                break

            # The reference starts several resources in the iteration
            # order of the set of resource keys this completion touched,
            # built in this order: its own resource, then each newly
            # ready child's.
            touched = [r]
            for child_id in kids:
                if pending[child_id] == 0:
                    touched.append(rid_of[child_id])
            touched = tuple(touched)
            starts = touch_order.get(touched)
            if starts is None:
                starts = touch_order[touched] = [
                    rid[key] for key in {key_of[c] for c in touched}
                ]

        if started != n:
            raise DeadlockError(
                f"simulation stalled: {started}/{n} ops completed"
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
        compare against it, and ``tests/test_work_counters.py`` times it
        as the floor :meth:`run` must beat.  Do not optimize this method.
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


def _service_times(dag: Dag, servers: Sequence[Resource]) -> array:
    """Every op's service time in one pass over the DAG's columns,
    written straight into an ``array('d')``.

    ``servers[k]`` serves the ops whose resource is ``dag.keys[k]``.  A
    :class:`Channel` or :class:`Processor` op gets exactly the float
    expression of its ``service_time`` (dividing an explicit duration by
    1.0 is exact).  An op whose ``service_time`` would raise
    (no duration on a processor, a negative size on a channel, a
    non-finite size or duration) or return a negative time, and every op
    on another resource type, gets ``-1.0`` or a negative time:
    :meth:`DagSimulator.run` then calls the resource's own method when
    the op starts, as the reference does.
    """
    # Per key: what an explicit duration is divided by, and the alpha and
    # beta of a transfer.  NaN marks what the resource does not price.
    scale: list[float] = []
    alpha: list[float] = []
    beta: list[float] = []
    for server in servers:
        if type(server) is Channel:
            scale.append(1.0)
            alpha.append(server.alpha)
            beta.append(server.beta)
        else:
            scale.append(1.0 if type(server) is Processor else math.nan)
            alpha.append(math.nan)
            beta.append(math.nan)
    service = array("d", [0.0]) * len(dag)
    # Item stores through a memoryview skip the array's argument parsing.
    out = memoryview(service)
    for i, r, nbytes, duration in zip(
        count(), dag.resource_id, dag.nbytes, dag.duration
    ):
        if duration == duration:  # not NaN: an explicit duration
            out[i] = duration / scale[r]
        elif nbytes >= 0:
            out[i] = alpha[r] + beta[r] * nbytes
        else:
            out[i] = -1.0
    # NaN marks an op to leave to its resource; an infinite time comes
    # from a non-finite size or duration, which the resource rejects.
    if not sum(service) < math.inf:
        for i, t in enumerate(service):
            if not t < math.inf:
                out[i] = -1.0
    return service


def makespan(
    dag: Dag, resources: Mapping[Hashable, Resource], *, validate: bool = True
) -> float:
    """Convenience wrapper: simulate ``dag`` and return only the makespan."""
    return DagSimulator(resources).run(dag, validate=validate).makespan
