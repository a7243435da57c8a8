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

from array import array
from dataclasses import dataclass, field
from typing import Hashable

from repro.errors import EmbeddingError
from repro.sim.dag import Dag, Label, Phase
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
        logical_done: indexed by logical op id, the physical op id whose
            completion marks the logical op complete (the last hop of
            its route); an ``array('i')``, so it keeps no int per op.
        relay_routes: per intermediate GPU, the set of (src, dst, tree)
            logical directed edges it relays — each needs one persistent
            forwarding kernel on that GPU.
    """

    detour_transfers: int = 0
    forwarded_bytes: dict[int, float] = field(default_factory=dict)
    lane_assignments: dict[tuple[int, int], set[int]] = field(
        default_factory=dict
    )
    logical_done: array = field(default_factory=lambda: array("i"))
    relay_routes: dict[int, set[tuple[int, int, int]]] = field(
        default_factory=dict
    )


def embed_on_physical(
    dag: Dag,
    topo: PhysicalTopology,
    router: Router,
) -> tuple[Dag, EmbeddingReport]:
    """Rewrite a logical-edge DAG onto physical channel resources.

    Reads the logical DAG's columns and appends the physical ops with
    :meth:`Dag.add_from`, so no :class:`~repro.sim.dag.Op` row is built.
    Every physical op keeps its logical op's fields (``chunk_set``
    included) except resource, deps and endpoints.  A hop keeps the
    logical op's label string; a template label (or, for an unlabelled
    op, ``hop{a}->{b}``) names the hop's own endpoints.  Forwarding ops
    read ``forward@gpuN``.  Each distinct (logical edge, tree) is routed
    once.

    Every detour hop spawns a forwarding op on the intermediate GPU's
    compute resource.  It does not delay the data path (GPUDirect
    forwarding is pipelined), but it occupies SM time, which is what the
    paper's Fig. 15 measures.

    Args:
        dag: logical DAG; transfer ops carry ``("edge", u, v, lane_hint)``
            resource keys, other ops are copied through unchanged.
        topo: physical topology providing the channels.
        router: router supplying direct/detour routes.

    Returns:
        (physical DAG, embedding report).

    Raises:
        EmbeddingError: if a logical edge's endpoints are not GPU nodes.
    """
    physical = Dag()
    report = EmbeddingReport()
    # logical op id -> physical op id whose completion means "op done"
    done = report.logical_done
    keys, offsets, dep_ids = dag.keys, dag.dep_offsets, dag.dep_ids
    is_edge = [is_edge_key(key) for key in keys]
    # (key id, tree) -> [(a, b, channel key, b is intermediate)]
    hops_of: dict[tuple[int, int], list[tuple[int, int, tuple, bool]]] = {}

    for i, (r, tree, nbytes) in enumerate(
        zip(dag.resource_id, dag.tree, dag.nbytes)
    ):
        mapped_deps = map(done.__getitem__, dep_ids[offsets[i]:offsets[i + 1]])
        if not is_edge[r]:
            done.append(physical.add_from(
                dag, i, keys[r], mapped_deps, src=dag.src[i], dst=dag.dst[i]
            ))
            continue

        hops = hops_of.get((r, tree))
        if hops is None:
            hops = hops_of[(r, tree)] = _route_hops(
                keys[r], tree, topo, router, report
            )
        if len(hops) > 1:
            report.detour_transfers += 1
        prev_id = -1
        for a, b, chan, intermediate in hops:
            hop_deps = mapped_deps if prev_id < 0 else [prev_id]
            hop_id = physical.add_from(
                dag, i, chan, hop_deps, src=a, dst=b, label=Label.HOP
            )
            if intermediate:
                report.forwarded_bytes[b] = (
                    report.forwarded_bytes.get(b, 0.0) + nbytes
                )
                physical.add(
                    gpu_key(b),
                    duration=nbytes / FORWARDING_COPY_BANDWIDTH,
                    deps=[hop_id],
                    src=a,
                    dst=b,
                    chunk=dag.chunk[i],
                    chunk_set=dag.chunk_sets.get(i, ()),
                    phase=Phase.OTHER,
                    tree=tree,
                    layer=dag.layer[i],
                    label=Label.FORWARD,
                )
            prev_id = hop_id
        done.append(prev_id)

    physical.validate()
    return physical, report


def _route_hops(
    key: tuple,
    tree: int,
    topo: PhysicalTopology,
    router: Router,
    report: EmbeddingReport,
) -> list[tuple[int, int, tuple, bool]]:
    """Route logical edge ``key`` for tree ``tree``: its physical hops
    ``(a, b, channel key, b is intermediate)``, recording the lanes and
    relay routes in ``report``."""
    _tag, u, v, _hint = key
    if not (0 <= u < topo.nnodes and 0 <= v < topo.nnodes):
        raise EmbeddingError(f"logical edge {u}->{v} endpoints not GPUs")
    path = router.route(u, v)
    hops = []
    for a, b in zip(path, path[1:]):
        lanes = topo.lane_count(a, b)
        if lanes == 0:
            raise EmbeddingError(f"router returned unlinked hop {a}->{b}")
        lane = tree % lanes
        report.lane_assignments.setdefault((a, b), set()).add(lane)
        intermediate = b != path[-1]
        if intermediate:
            report.relay_routes.setdefault(b, set()).add((u, v, tree))
        hops.append((a, b, chan_key(a, b, lane), intermediate))
    return hops


def fold_lanes(dag: Dag, lanes: int) -> Dag:
    """``dag`` with each logical edge's lane hint folded modulo ``lanes``.

    On a fabric with fewer lanes than lane hints, the folded lanes share
    one channel.  Only the key table is remapped; a DAG whose lanes all
    fit is returned as is.
    """

    def fold(key: Hashable) -> Hashable:
        if is_edge_key(key):
            _tag, u, v, lane = key
            if lane % lanes != lane:
                return edge_key(u, v, lane % lanes)
        return key

    return dag.remap_resources(fold)


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
