"""Shared schedule/result types for collective algorithms.

A collective builder compiles to a :class:`CollectiveSchedule`: a logical
DAG of chunk transfers plus metadata describing which ops complete each
chunk and where each chunk's bytes live in the gradient buffer.  Schedules
are then simulated either on an abstract fabric (uniform alpha/beta per
logical edge) or embedded onto a physical topology.

The DES (:mod:`repro.sim`), the embedding and the router load on the
first simulate call, not at import: a chained-training process that reads
only these types never compiles the simulator.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import EmbeddingError, ScheduleError, SimulationError

if TYPE_CHECKING:
    from repro.sim.dag import Dag
    from repro.sim.engine import SimResult
    from repro.topology.base import PhysicalTopology
    from repro.topology.routing import Router
    from repro.topology.switch import FabricSpec


@dataclass
class CollectiveSchedule:
    """A compiled collective: logical DAG + chunk bookkeeping.

    Attributes:
        dag: logical transfer DAG (resource keys are logical edges).
        algorithm: name ("ring", "tree", "double_tree", ...).
        nnodes: participating node count.
        nbytes: total message size in bytes.
        chunk_sizes: size of each global chunk (indexed by chunk id).
        chunk_offsets: starting byte offset of each global chunk within the
            message buffer.
        final_ops: per chunk id, the logical op ids whose joint completion
            makes the fully-reduced chunk available at *every* node.
        arrival_ops: (node, chunk) -> logical op id delivering the reduced
            chunk to that node (missing for nodes that already hold it,
            e.g. the tree root at the end of reduction).
        overlapped: True when reduction and broadcast phases are chained
            (the paper's C1 behaviour).
        ntrees: number of trees (1 for single tree/ring, 2 for double tree).
    """

    dag: Dag
    algorithm: str
    nnodes: int
    nbytes: float
    chunk_sizes: list[float]
    chunk_offsets: list[float]
    final_ops: dict[int, list[int]] = field(default_factory=dict)
    arrival_ops: dict[tuple[int, int], int] = field(default_factory=dict)
    overlapped: bool = False
    ntrees: int = 1

    @property
    def nchunks(self) -> int:
        return len(self.chunk_sizes)

    def validate(self) -> None:
        self.dag.validate()
        if len(self.chunk_offsets) != self.nchunks:
            raise ScheduleError("chunk_offsets/chunk_sizes length mismatch")
        total = sum(self.chunk_sizes)
        if abs(total - self.nbytes) > 1e-6 * max(1.0, self.nbytes):
            raise ScheduleError(
                f"chunk sizes sum to {total}, expected {self.nbytes}"
            )
        for chunk in range(self.nchunks):
            if chunk not in self.final_ops or not self.final_ops[chunk]:
                raise ScheduleError(f"chunk {chunk} has no final ops")


@dataclass
class AllReduceOutcome:
    """Simulated timing of one AllReduce schedule.

    Attributes:
        schedule: the schedule that was simulated.
        sim: raw per-op timings (on the *executed* DAG — physical when the
            schedule was embedded).
        logical_finish: finish time of each logical op id, an
            ``array('d')``; ``sim.finish`` itself when the simulated DAG
            is the logical one.
        total_time: completion of the whole collective.
        chunk_available: per chunk id, when the reduced chunk is available
            at every node.
        turnaround: the paper's *gradient turnaround time* — when the first
            chunk has finished the whole collective and is ready for
            computation.
    """

    schedule: CollectiveSchedule
    sim: SimResult
    logical_finish: Sequence[float]
    total_time: float
    chunk_available: dict[int, float]
    turnaround: float

    def node_arrivals(self, node: int) -> list[float]:
        """When ``node`` holds each fully reduced chunk, in chunk-id order.

        A node that produced a reduced chunk itself (tree root, ring
        owner) holds it when the first of the chunk's final ops ends."""
        finish, schedule = self.logical_finish, self.schedule
        return [
            finish[schedule.arrival_ops[node, chunk]]
            if (node, chunk) in schedule.arrival_ops
            else min(finish[i] for i in schedule.final_ops[chunk])
            for chunk in range(schedule.nchunks)
        ]


def simulate_on_fabric(
    schedule: CollectiveSchedule, fabric: FabricSpec
) -> AllReduceOutcome:
    """Simulate a schedule on an abstract fabric.

    Each logical edge gets a dedicated channel with the fabric's
    alpha/beta, except that lane hints are folded modulo ``fabric.lanes``:
    on a single-lane fabric the two trees of a double tree share each
    directed channel (the contention that forbids overlapping a double
    tree without extra physical connectivity)."""
    from repro.sim.engine import DagSimulator
    from repro.topology.embedding import abstract_resources, fold_lanes

    if schedule.nnodes > fabric.nnodes:
        raise EmbeddingError(
            f"a {schedule.nnodes}-rank schedule does not fit on "
            f"{fabric.nnodes} GPUs of {fabric.name!r}"
        )
    dag = fold_lanes(schedule.dag, fabric.lanes)
    resources = abstract_resources(dag, alpha=fabric.alpha, beta=fabric.beta)
    sim = DagSimulator(resources).run(dag)
    return _build_outcome(schedule, sim, sim.finish)


def simulate_on_physical(
    schedule: CollectiveSchedule,
    topo: PhysicalTopology,
    *,
    router: Router | None = None,
) -> AllReduceOutcome:
    """Embed a schedule onto a physical topology and simulate it.

    Args:
        schedule: the logical schedule.
        topo: physical topology supplying channels and GPU processors.
        router: route policy (defaults to a plain Router over ``topo``).
    """
    from repro.sim.engine import DagSimulator
    from repro.sim.resources import Processor
    from repro.topology.embedding import embed_on_physical
    from repro.topology.routing import Router

    router = router or Router(topo)
    physical, report = embed_on_physical(schedule.dag, topo, router)
    resources = topo.to_resources()
    # Sync markers and similar bookkeeping ops get default processors.
    for key in physical.resources():
        if key not in resources:
            resources[key] = Processor(name=str(key))
    # embed_on_physical has just validated this DAG.
    sim = DagSimulator(resources).run(physical, validate=False)
    logical_finish = array(
        "d", map(sim.finish.__getitem__, report.logical_done)
    )
    return _build_outcome(schedule, sim, logical_finish)


def _build_outcome(
    schedule: CollectiveSchedule,
    sim: SimResult,
    logical_finish: Sequence[float],
) -> AllReduceOutcome:
    chunk_available: dict[int, float] = {}
    for chunk, op_ids in schedule.final_ops.items():
        if not op_ids:
            raise SimulationError(f"chunk {chunk} has no final ops")
        chunk_available[chunk] = max(logical_finish[i] for i in op_ids)
    if not chunk_available:
        raise SimulationError("schedule defines no chunks")
    return AllReduceOutcome(
        schedule=schedule,
        sim=sim,
        logical_finish=logical_finish,
        total_time=max(chunk_available.values()),
        chunk_available=chunk_available,
        turnaround=min(chunk_available.values()),
    )
