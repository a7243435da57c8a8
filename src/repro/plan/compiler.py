"""Compile a verified plan into an executor :class:`Program`.

The compiler half of the plan path (:mod:`repro.runtime.executor` is
the other): it reads a plan's columns and its
:func:`~repro.plan.verifier.verify_plan` report once and flattens each
thread block into instruction tuples, deciding from the report's
pairing and ancestor bitsets which wires may alias the sender's buffer
(:func:`~repro.plan.verifier.prove_send_aliasing`), which ops make a
chunk final on their rank (the gradient queue's enqueue posts), and
which SENDs may reuse their block's last checksum for the chunk — those
after the same writes of the slot as that checksum.

:func:`tree_program` is the tree runtime's build path.  The programs of
:func:`shipped_configs` ship with the package; ``tools/ship_programs.py``
regenerates them and ``tests/test_program_digests.py`` rebuilds and
byte-compares each.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from itertools import chain

from ..codes import K_RECV, K_SEND
from ..errors import ConfigError, PlanVerificationError
from ..runtime.executor import Program, program_key
from .builders import build_double_tree_plan, build_tree_plan
from .ir import Plan
from .passes import relay_edges
from .verifier import (
    REDUCE_LIKE_CODES,
    VerifyReport,
    chunk_finals,
    prove_send_aliasing,
    relay_key,
    slot_writes,
    verify_plan,
)

__all__ = [
    "shipped_configs",
    "tree_plan",
    "tree_program",
]

#: Payload of the tree runtime's plans: a program binds element counts
#: at load, so one size keeps it, and its plan digest, length-free.
TREE_PLAN_NBYTES = 1e6


def _report_facts(report: VerifyReport, aliased: list[tuple]) -> str:
    """The verification facts a program depends on, as JSON."""
    return json.dumps({
        "ok": report.ok,
        "errors": report.errors,
        "wires": [
            [repr(key), list(sends), list(recvs)]
            for key, (sends, recvs) in report.pairing.wires.items()
        ],
        "aliased": [repr(key) for key in aliased],
    }, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _compile(
    plan: Plan, report: VerifyReport, *, key=None, portable: bool = False
) -> Program:
    """Flatten ``plan`` into a :class:`Program`, trusting ``report``.

    A failing report still compiles (the mutation fuzzer runs broken
    plans on purpose): no finals, no checksum reuse, every wire staged.
    An in-process (not ``portable``) program names ops through the plan
    on demand and never serialises; only :func:`tree_program`, which
    verifies first, makes a portable one.
    """
    pairing = report.pairing
    wire_list = list(pairing.wires.items())
    proof = prove_send_aliasing(plan, report)
    chunk_lists = plan.chunk_lists()
    aliased = [
        w for w, (_, (send_ids, _r)) in enumerate(wire_list)
        if proof.aliases(send_ids)
    ]
    wire_of = array("i", [-1]) * len(plan)
    for w, (_, (send_ids, recv_ids)) in enumerate(wire_list):
        for i in chain(send_ids, recv_ids):
            wire_of[i] = w
    programs = plan.program_ids()
    home = array("i", [0]) * len(plan)
    for b, ids in enumerate(programs.values()):
        for i in ids:
            home[i] = b
    # Deps on another thread block's op wait on a per-run event.
    offsets, dep_ids = plan.dep_offsets, plan.dep_ids
    event_of: dict[int, int] = {}
    waits: dict[int, tuple[int, ...]] = {}
    for i, b in enumerate(home):
        lo, hi = offsets[i], offsets[i + 1]
        if lo == hi:
            continue
        cross = [d for d in dep_ids[lo:hi] if home[d] != b]
        if cross:
            waits[i] = tuple(
                event_of.setdefault(d, len(event_of)) for d in cross
            )
    reach = report.reach
    writers = slot_writes(plan)
    finals = chunk_finals(writers, reach) if reach else {}
    relays = plan.relay_ids()
    kinds, phases, trees = plan.kind_code, plan.phase_code, plan.tree

    def same_writes(a: int, b: int, slot: tuple[int, int]) -> bool:
        """The same writes of ``slot`` happen-before ``a`` and ``b``."""
        return all(
            (reach[a] >> w & 1) == (reach[b] >> w & 1)
            for w in writers.get(slot, ())
        )

    blocks = []
    for (rank, tid), ids in programs.items():
        prog = []
        reduce_pos = -1
        seen_chunk: int | None = None
        # Chunk -> the last op of this block that set its checksum.
        crc_setter: dict[int, int] = {}
        for i in ids:
            chunks = chunk_lists[i]
            fault_pos = -1
            if (
                phases[i] in REDUCE_LIKE_CODES
                and chunks and chunks[0] != seen_chunk
            ):
                seen_chunk = chunks[0]
                reduce_pos += 1
                fault_pos = reduce_pos
            relay = i in relays
            reuse = False
            if kinds[i] == K_SEND and not relay and reach:
                reuse = all(
                    c in crc_setter
                    and same_writes(crc_setter[c], i, (rank, c))
                    for c in chunks
                )
            if not relay and kinds[i] in (K_SEND, K_RECV):
                for c in chunks:
                    crc_setter[c] = i
            prog.append((
                i, kinds[i], wire_of[i], chunks,
                relay_key(plan, i) if relay else None,
                waits.get(i, ()), event_of.get(i, -1), fault_pos, trees[i],
                sum(finals.get((rank, c)) == i for c in chunks), reuse,
            ))
        blocks.append(((rank, plan.tbs[tid]), tuple(prog)))
    names, origins = plan.name_of, plan.origin_of
    plan_sha = report_sha = ""
    if portable:
        names = tuple(map(plan.name_of, range(len(plan))))
        origins = tuple(map(plan.origin_of, range(len(plan))))
        plan_sha = _sha256(plan.to_json())
        report_sha = _sha256(
            _report_facts(report, [wire_list[w][0] for w in aliased])
        )
    wires = tuple(
        ((src, dst, tree, phase.value, flow),
         tuple(c for s in send_ids for c in chunk_lists[s]))
        for (src, dst, tree, phase, flow), (send_ids, _) in wire_list
    )
    return Program(
        plan.nnodes, plan.nchunks, plan.ntrees, tuple(blocks), wires,
        frozenset(aliased), tuple(event_of), names, origins, plan_sha,
        report_sha, key=key,
    )


def tree_plan(trees, *, chunks_per_tree: int, overlapped: bool,
              detour_map: dict[tuple[int, int], int]) -> Plan:
    """The tree runtime's plan: one tree (:func:`build_tree_plan`) or two
    (:func:`build_double_tree_plan`), with every edge in ``detour_map``
    relayed (:func:`~repro.plan.passes.relay_edges`)."""
    if len(trees) not in (1, 2):
        raise ConfigError(f"need one or two trees, got {len(trees)}")
    kwargs = dict(nchunks=chunks_per_tree, overlapped=overlapped)
    if len(trees) == 1:
        plan = build_tree_plan(
            trees[0].nnodes, TREE_PLAN_NBYTES, tree=trees[0], **kwargs
        )
    else:
        plan = build_double_tree_plan(
            trees[0].nnodes, TREE_PLAN_NBYTES, trees=tuple(trees), **kwargs
        )
    return relay_edges(plan, detour_map) if detour_map else plan


def tree_program(trees, *, portable: bool = False, **config) -> Program:
    """Build, verify and compile the tree runtime's program for
    ``config`` (:func:`tree_plan`'s keywords); a ``portable`` program
    carries op names and digests, and serialises.

    Raises:
        PlanVerificationError: the plan fails
            :func:`~repro.plan.verifier.verify_plan`.
    """
    plan = tree_plan(trees, **config)
    report = verify_plan(plan)
    if not report.ok:
        raise PlanVerificationError(report.errors)
    return _compile(
        plan, report, key=program_key(trees, **config), portable=portable
    )


def shipped_configs() -> list[dict]:
    """The configurations whose programs ship with the package: the
    DGX-1 trees with their detour, K = 8, overlapped (C-Cube) and not
    (B) — what the e2e trainers run."""
    from ..topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

    return [
        dict(trees=dgx1_trees(), chunks_per_tree=8, overlapped=overlapped,
             detour_map=dict(DETOURED_EDGES))
        for overlapped in (True, False)
    ]
