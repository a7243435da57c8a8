"""Embedding logical-edge DAGs onto physical channels.

Collective builders (:mod:`repro.collectives`) emit *logical* transfer ops
whose resource keys are ``("edge", src, dst, lane_hint)``.  On an abstract
fabric those keys become channels directly; on a real physical topology
(the DGX-1) each logical transfer must be mapped onto physical NVLink
channels:

- a direct link carries the transfer on one physical channel,
- a missing link becomes a *detour*: two chained hops through an
  intermediate GPU (paper Fig. 10(b)), optionally charging the
  intermediate GPU's compute resource for the forwarding kernel,
- parallel lane demands (the two trees of the overlapped double tree) are
  spread across parallel physical lanes where the topology has them
  (GPU2-GPU3, GPU6-GPU7), and share a single channel where it does not —
  which is exactly the contention the paper says forbids overlapping a
  double tree without the extra connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.errors import EmbeddingError
from repro.sim.dag import Dag, Phase
from repro.sim.resources import Channel, Processor
from repro.topology.base import PhysicalTopology, chan_key, gpu_key, intern_key
from repro.topology.routing import Router


def edge_key(u: int, v: int, lane: int = 0) -> tuple:
    """Resource key of the logical directed edge ``u -> v`` on ``lane``."""
    return intern_key(("edge", u, v, lane))


def is_edge_key(key: Hashable) -> bool:
    return isinstance(key, tuple) and len(key) == 4 and key[0] == "edge"


#: Effective bandwidth (bytes/s) at which a detour node's forwarding kernel
#: copies data through the intermediate GPU, charged against its SMs.
FORWARDING_COPY_BANDWIDTH = 100e9


@dataclass
class EmbeddingReport:
    """What the embedding did — useful for tests and the detour study.

    Attributes:
        detour_transfers: count of logical transfers that needed a detour.
        forwarded_bytes: per intermediate GPU, total bytes forwarded.
        lane_assignments: per (u, v), set of physical lanes used.
        logical_done: logical op id -> physical op id whose completion
            marks the logical op complete (the last hop of its route).
        relay_routes: per intermediate GPU, the set of (src, dst, tree)
            logical directed edges it relays — each needs one persistent
            forwarding kernel on that GPU.
    """

    detour_transfers: int = 0
    forwarded_bytes: dict[int, float] | None = None
    lane_assignments: dict[tuple[int, int], set[int]] | None = None
    logical_done: dict[int, int] | None = None
    relay_routes: dict[int, set[tuple[int, int, int]]] | None = None

    def __post_init__(self) -> None:
        if self.forwarded_bytes is None:
            self.forwarded_bytes = {}
        if self.lane_assignments is None:
            self.lane_assignments = {}
        if self.logical_done is None:
            self.logical_done = {}
        if self.relay_routes is None:
            self.relay_routes = {}


def embed_on_physical(
    dag: Dag,
    topo: PhysicalTopology,
    router: Router,
    *,
    charge_forwarding: bool = True,
) -> tuple[Dag, EmbeddingReport]:
    """Rewrite a logical-edge DAG onto physical channel resources.

    Args:
        dag: logical DAG; transfer ops carry ``("edge", u, v, lane_hint)``
            resource keys, other ops are copied through unchanged.
        topo: physical topology providing the channels.
        router: router supplying direct/detour routes.
        charge_forwarding: if True, every detour hop spawns a forwarding
            op on the intermediate GPU's compute resource (it does not
            delay the data path — GPUDirect forwarding is pipelined — but
            it occupies SM time, which is what the paper's Fig. 15
            measures).

    Returns:
        (physical DAG, embedding report).

    Raises:
        EmbeddingError: if a logical edge's endpoints are not GPU nodes.
    """
    physical = Dag()
    report = EmbeddingReport()
    # logical op id -> physical op id whose completion means "op done"
    done_id = report.logical_done
    assert done_id is not None

    for op in dag.ops:
        mapped_deps = [done_id[d] for d in op.deps]
        if not is_edge_key(op.resource):
            new_id = physical.add(
                op.resource,
                nbytes=op.nbytes,
                duration=op.duration,
                deps=mapped_deps,
                src=op.src,
                dst=op.dst,
                chunk=op.chunk,
                phase=op.phase,
                tree=op.tree,
                layer=op.layer,
                label=op.label,
            )
            done_id[op.op_id] = new_id
            continue

        _tag, u, v, _hint = op.resource
        if not (0 <= u < topo.nnodes and 0 <= v < topo.nnodes):
            raise EmbeddingError(f"logical edge {u}->{v} endpoints not GPUs")
        path = router.route(u, v)
        if len(path) > 2:
            report.detour_transfers += 1
        prev_id: int | None = None
        for a, b in zip(path, path[1:]):
            lanes = topo.lane_count(a, b)
            if lanes == 0:
                raise EmbeddingError(f"router returned unlinked hop {a}->{b}")
            lane = op.tree % lanes
            report.lane_assignments.setdefault((a, b), set()).add(lane)
            hop_deps = mapped_deps if prev_id is None else [prev_id]
            hop_id = physical.add(
                chan_key(a, b, lane),
                nbytes=op.nbytes,
                deps=hop_deps,
                src=a,
                dst=b,
                chunk=op.chunk,
                phase=op.phase,
                tree=op.tree,
                layer=op.layer,
                label=op.label or f"hop{a}->{b}",
            )
            is_intermediate = b != path[-1]
            if is_intermediate:
                report.forwarded_bytes[b] = (
                    report.forwarded_bytes.get(b, 0.0) + op.nbytes
                )
                report.relay_routes.setdefault(b, set()).add((u, v, op.tree))
                if charge_forwarding:
                    physical.add(
                        gpu_key(b),
                        duration=op.nbytes / FORWARDING_COPY_BANDWIDTH,
                        deps=[hop_id],
                        src=a,
                        dst=b,
                        chunk=op.chunk,
                        phase=Phase.OTHER,
                        tree=op.tree,
                        layer=op.layer,
                        label=f"forward@gpu{b}",
                    )
            prev_id = hop_id
        done_id[op.op_id] = prev_id  # type: ignore[assignment]

    physical.validate()
    return physical, report


def abstract_resources(
    dag: Dag, *, alpha: float, beta: float
) -> dict[Hashable, object]:
    """Channels for every logical edge a DAG references, uniform alpha/beta.

    Used for abstract fabrics (scale-out study) where every logical edge is
    realizable as its own channel.  Non-edge resources (GPU compute) get a
    default :class:`~repro.sim.resources.Processor`.
    """
    resources: dict[Hashable, object] = {}
    for key in dag.resources():
        if is_edge_key(key):
            _tag, u, v, lane = key
            resources[key] = Channel(alpha=alpha, beta=beta, name=f"{u}->{v}#{lane}")
        else:
            resources[key] = Processor(name=str(key))
    return resources
