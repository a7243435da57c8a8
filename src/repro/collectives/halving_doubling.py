"""Recursive halving-doubling AllReduce (Thakur et al., cited as [52]).

The classic HPC algorithm the paper's cost-model section builds on:
reduce-scatter by *recursive vector halving with distance doubling*
(pairs exchange half their active vector at distance 1, 2, 4, ...),
then all-gather by recursive doubling in reverse.  Cost:

    T = 2 log2(P) alpha + 2 ((P-1)/P) beta N

— the ring's bandwidth term with the tree's logarithmic latency term,
which is why it is the textbook choice for medium messages.  Including it
gives the comparison suite a third point between "ring" (bandwidth
optimal, O(P) latency) and "tree" (pipelined, chainable): halving-
doubling matches the ring's bandwidth at log latency, but like the ring
it scatters chunk ownership across ranks, so it is *not* in-order and
cannot host gradient queuing either.

Requires a power-of-two node count (the standard restriction).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.collectives.base import CollectiveSchedule
from repro.collectives.chunking import chunk_offsets, split_bytes
from repro.sim.dag import Dag, Phase
from repro.topology.embedding import edge_key


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def halving_doubling_allreduce(
    nnodes: int, nbytes: float
) -> CollectiveSchedule:
    """Build a recursive halving-doubling AllReduce schedule.

    The message is viewed as P chunks; after the reduce-scatter phase
    rank r owns the fully reduced chunk whose index is the bit-reversal
    pattern of the exchanges — tracked explicitly below.

    Args:
        nnodes: node count; must be a power of two and >= 2.
        nbytes: total message size.

    Raises:
        ConfigError: for non-power-of-two node counts.
    """
    if nnodes < 2 or not _is_power_of_two(nnodes):
        raise ConfigError(
            "halving-doubling requires a power-of-two node count"
        )
    steps = nnodes.bit_length() - 1
    dag = Dag()
    sizes = split_bytes(nbytes, nnodes)
    final_ops: dict[int, list[int]] = {c: [] for c in range(nnodes)}
    arrival_ops: dict[tuple[int, int], int] = {}

    # active[rank] = set of chunk ids rank is still reducing.
    active: list[set[int]] = [set(range(nnodes)) for _ in range(nnodes)]
    # Each rank's kernel is strictly sequential: recv(s-1) happens before
    # send(s), and send(s-1) before send(s).  Chaining every send to the
    # rank's previous receive *and* previous send reproduces that program
    # order, which transitively covers every data dependency of the
    # exchanged halves.
    last_incoming: list[int | None] = [None] * nnodes
    last_send: list[int | None] = [None] * nnodes

    def add_transfer(src: int, dst: int, chunks: set[int],
                     phase: Phase, step: int) -> int:
        deps = sorted(
            {d for d in (last_incoming[src], last_send[src]) if d is not None}
        )
        payload = sum(sizes[c] for c in chunks)
        op_id = dag.add(
            edge_key(src, dst, 0),
            nbytes=payload,
            deps=deps,
            src=src,
            dst=dst,
            chunk=min(chunks),
            chunk_set=sorted(chunks),
            phase=phase,
            label=f"{phase.value[:2]} s{step} {src}->{dst} "
                  f"x{len(chunks)}",
        )
        last_send[src] = op_id
        return op_id

    # Reduce-scatter: at step s, partner = rank XOR 2^s; each side keeps
    # the half of its active set the partner's bit selects.
    for step in range(steps):
        bit = 1 << step
        transfers: dict[tuple[int, int], int] = {}
        keep: dict[int, set[int]] = {}
        for rank in range(nnodes):
            partner = rank ^ bit
            # Keep chunks whose `step` bit matches our own bit value.
            keep[rank] = {
                c for c in active[rank] if (c & bit) == (rank & bit)
            }
            send = active[rank] - keep[rank]
            transfers[(rank, partner)] = add_transfer(
                rank, partner, send, Phase.REDUCE_SCATTER, step
            )
        for rank in range(nnodes):
            partner = rank ^ bit
            last_incoming[rank] = transfers[(partner, rank)]
            active[rank] = keep[rank]

    owners = {next(iter(active[r])): r for r in range(nnodes)}
    if sorted(owners) != list(range(nnodes)):
        raise ConfigError("internal error: bad chunk ownership")
    for chunk, rank in owners.items():
        op = last_incoming[rank]
        assert op is not None
        arrival_ops[(rank, chunk)] = op
        final_ops[chunk].append(op)

    # All-gather: reverse the exchange order, doubling owned sets.
    owned: list[set[int]] = [set(active[r]) for r in range(nnodes)]
    for step in reversed(range(steps)):
        bit = 1 << step
        transfers = {}
        for rank in range(nnodes):
            partner = rank ^ bit
            transfers[(rank, partner)] = add_transfer(
                rank, partner, owned[rank], Phase.ALL_GATHER, step
            )
        new_owned = [set(s) for s in owned]
        for rank in range(nnodes):
            partner = rank ^ bit
            incoming = transfers[(partner, rank)]
            last_incoming[rank] = incoming
            for c in owned[partner]:
                arrival_ops[(rank, c)] = incoming
                final_ops[c].append(incoming)
            new_owned[rank] |= owned[partner]
        owned = new_owned

    schedule = CollectiveSchedule(
        dag=dag,
        algorithm="halving_doubling",
        nnodes=nnodes,
        nbytes=nbytes,
        chunk_sizes=sizes,
        chunk_offsets=chunk_offsets(sizes),
        final_ops=final_ops,
        arrival_ops=arrival_ops,
        overlapped=False,
        ntrees=1,
    )
    schedule.validate()
    return schedule
