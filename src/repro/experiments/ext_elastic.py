"""Extension — elastic membership drill with bit-exactness audit.

The paper re-embeds the logical double tree when GPUs *leave*; this
drill runs the full elastic generalization on the functional runtime: a
scripted event stream (crash, then rejoin to the full 8) drives
:class:`~repro.runtime.elastic.ElasticTrainer` through abort, drain,
checkpoint-aware recovery, N→N±k re-embedding, and a verified-plan gate
at every membership boundary — then the whole multi-segment run is
audited **bit-exactly** against
:func:`~repro.runtime.elastic.elastic_serial_reference`.

One row per ownership segment: who the members were, what the searched
embedding cost, how large its compiled-and-verified plan was, and
whether the run as a whole reproduced the serial reference bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dnn.layers import LayerSpec, NetworkModel
from repro.experiments.report import render_table
from repro.runtime.checkpoint import Checkpointer, MemoryBackend
from repro.runtime.elastic import (
    ElasticTrainer,
    elastic_serial_reference,
    parse_events,
)
from repro.runtime.recovery import REEMBED, RecoveryPolicy
from repro.runtime.sync import SpinConfig
from repro.runtime.training import quadratic_gradient
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

#: Gradient length for the drill (small: the claim is bitwise, not perf).
DEFAULT_ELEMS = 256

#: Default scripted membership events.
DEFAULT_EVENTS = "crash:3@1,join:3@3"

#: Global iterations in the drill.
DEFAULT_ITERATIONS = 4


@dataclass(frozen=True)
class ElasticRow:
    """One ownership segment of the elastic drill.

    Attributes:
        segment: segment index in run order.
        start_iteration: first global iteration the segment covers.
        opened_by: event that opened the segment (``"start"`` for the
            initial one).
        nmembers: live member count.
        members: sorted physical GPU ids.
        detours: detoured edges in the segment's searched embedding.
        conflicts: channel conflicts in the searched embedding.
        plan_ops: ops in the compiled plan the segment was gated on.
        plan_verified: the static verifier's verdict (always True —
            execution is refused otherwise).
        checkpoints_committed: generations committed over the whole run.
        bit_exact: whole-run weights match the multi-segment serial
            reference bit for bit (same value on every row).
    """

    segment: int
    start_iteration: int
    opened_by: str
    nmembers: int
    members: tuple[int, ...]
    detours: int
    conflicts: int
    plan_ops: int
    plan_verified: bool
    checkpoints_committed: int
    bit_exact: bool


#: Member set whose only feasible embedding is a synthesized fallback
#: plan — the interpreted-path variant starts here, so its crash fires
#: inside a synthesized plan rather than a compiled double tree.
INTERPRETED_MEMBERS = (0, 5, 6, 7)

#: Scripted events for the interpreted-path variant: a crash while the
#: whole job runs on the synthesized plan.
INTERPRETED_EVENTS = "crash:5@2"


def run(
    *,
    elems: int = DEFAULT_ELEMS,
    events: str = DEFAULT_EVENTS,
    iterations: int = DEFAULT_ITERATIONS,
    checkpoint_every: int = 2,
    seed: int = 0,
    initial_members: tuple[int, ...] | None = None,
) -> list[ElasticRow]:
    """Run the scripted drill and audit it against the serial reference."""
    network = NetworkModel(
        name="elastic",
        layers=(LayerSpec(name="L0", params=elems, fwd_flops=1e6),),
    )
    rng = np.random.default_rng(seed)
    gradient_fn = quadratic_gradient(
        [rng.normal(size=elems) for _ in range(8)]
    )
    trainer = ElasticTrainer(
        dgx1_topology(),
        network,
        gradient_fn,
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=0.02,
        policy=RecoveryPolicy(mode=REEMBED),
        spin=SpinConfig(timeout=10.0),
        detour_preference=DETOUR_NODES,
        checkpointer=Checkpointer(MemoryBackend()),
        checkpoint_every=checkpoint_every,
        initial_members=initial_members,
    )
    stream = parse_events(events, iterations=iterations, seed=seed)
    w0 = np.zeros(elems)
    report = trainer.train(w0, iterations=iterations, events=stream)

    expected = elastic_serial_reference(
        network,
        gradient_fn,
        w0,
        segments=report.segments,
        layout=trainer.layout,
        iterations=iterations,
        learning_rate=0.02,
    )
    bit_exact = bool(np.array_equal(report.weights, expected))
    committed = report.checkpoint_counters.get("commits", 0)

    opened_by = {
        rec.resumed_from: rec.event.kind for rec in report.records
    }
    rows: list[ElasticRow] = []
    for i, (start, embedding, _assignments) in enumerate(report.segments):
        members = embedding.survivors
        check = trainer.plan_check_for(frozenset(members))
        rows.append(
            ElasticRow(
                segment=i,
                start_iteration=start,
                opened_by=opened_by.get(start, "start") if i else "start",
                nmembers=len(members),
                members=members,
                detours=embedding.cost.detours,
                conflicts=embedding.cost.conflicts,
                plan_ops=check.nops,
                plan_verified=check.verified,
                checkpoints_committed=committed,
                bit_exact=bit_exact,
            )
        )
    return rows


def run_interpreted(
    *,
    elems: int = DEFAULT_ELEMS,
    iterations: int = 5,
    seed: int = 0,
) -> list[ElasticRow]:
    """The interpreted-path variant of the drill.

    Starts on :data:`INTERPRETED_MEMBERS` — a member set with no
    feasible double tree, so every iteration executes a synthesized
    fallback plan through the interpreter — and crashes one member
    mid-plan.  Recovery must drive the same abort → drain → detect →
    re-embed machinery entirely inside interpreted segments and still
    land bit-exact.
    """
    return run(
        elems=elems,
        events=INTERPRETED_EVENTS,
        iterations=iterations,
        seed=seed,
        initial_members=INTERPRETED_MEMBERS,
    )


def format_table(rows: list[ElasticRow]) -> str:
    return render_table(
        ["segment", "from iter", "opened by", "members", "detours",
         "conflicts", "plan ops", "verified", "bit-exact run"],
        [
            (
                str(r.segment),
                str(r.start_iteration),
                r.opened_by,
                f"{r.nmembers}: {','.join(map(str, r.members))}",
                str(r.detours),
                str(r.conflicts),
                str(r.plan_ops),
                "yes" if r.plan_verified else "NO",
                "yes" if r.bit_exact else "NO",
            )
            for r in rows
        ],
        title=(
            "Extension — elastic membership drill "
            f"({rows[0].checkpoints_committed if rows else 0}"
            " checkpoint(s) committed)"
        ),
    )
