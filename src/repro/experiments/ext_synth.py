"""Extension — synthesized plans vs hand-written builders per topology.

The synthesis subsystem (:mod:`repro.synth`) claims two things: on the
stock machines its tuned plans are *never more than 5% slower* than
the best hand-written builder (``ratio <=`` :data:`ACCEPT_TOLERANCE`;
they often win outright), and on degraded topologies — where the
hand-written builders assume links that no longer exist and pay
PCIe-fallback or detour penalties — it *beats* every one of them.
This experiment is both claims as a table: for each topology and swept
message size, the autotuner's best synthesized plan is put next to the
best hand-written builder plan, both compiled and gated the same way,
with the verifier/oracle verdicts and a bit-exact interpreter execution
check alongside.

``ratio`` is synthesized over hand-written: 1.0 is parity, below 1.0
the synthesized plan wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.report import render_table
from repro.plan.interpreter import PlanInterpreter
from repro.plan.lowering import simulate_plan
from repro.plan.verifier import verify_plan
from repro.sim.oracle import check_plan_ordering
from repro.synth.search import effective_gpu_topology
from repro.synth.tune import SWEEP_SIZES, TuneResult, tune
from repro.topology.base import PhysicalTopology
from repro.topology.dgx1 import dgx1_topology
from repro.topology.dgx2 import dgx2_topology
from repro.topology.switch import switch_topology
from repro.topology.tree_search import survivor_topology

#: Largest synthesized/builder time ratio accepted on a stock machine.
ACCEPT_TOLERANCE = 1.05

#: Interpreter problem size for the bit-exactness column.  Large enough
#: for any chunking the tuner emits (<= 32 chunks after pipelining).
CHECK_ELEMS = 1024


def default_topologies() -> list[PhysicalTopology]:
    """The experiment's machine zoo: two stock boxes, two degraded
    variants, one switch fabric."""
    degraded_link = dgx1_topology().without_link(3, 7)
    degraded_link.name = "dgx1-nolink37"
    quad_dead, _ = survivor_topology(dgx1_topology(), [1, 2, 3, 4])
    quad_dead.name = "dgx1-quad-dead"
    return [
        dgx1_topology(),
        dgx2_topology(),
        degraded_link,
        quad_dead,
        switch_topology(8, radix=4),
    ]


@dataclass(frozen=True)
class SynthRow:
    """One (topology, message size) comparison.

    Attributes:
        topology: topology name.
        nbytes: swept message size.
        builder: best hand-written builder strategy (``-`` when no
            builder plan passed the gate on this topology).
        builder_us: its simulated AllReduce time.
        synth: best synthesized strategy (``strategy@pipeline``).
        synth_us: its simulated AllReduce time.
        ratio: ``synth / builder`` (synthesized wins below 1.0).
        verified: the winner passed static verification.
        ordered: the winner passed the sim ordering oracle.
        exact: interpreter execution of the winner is bit-exact
            against the element-wise sum on integer inputs.
    """

    topology: str
    nbytes: float
    builder: str
    builder_us: float
    synth: str
    synth_us: float
    ratio: float
    verified: bool
    ordered: bool
    exact: bool


def _bit_exact(plan, report) -> bool:
    """Integer-input interpreter run vs the order-independent sum
    (``report`` is the plan's verdict, trusted as it is)."""
    rng = np.random.default_rng(7)
    inputs = [
        rng.integers(-100, 100, CHECK_ELEMS).astype(np.float64)
        for _ in range(plan.nnodes)
    ]
    expected = np.sum(inputs, axis=0)
    run = PlanInterpreter(
        plan, total_elems=CHECK_ELEMS, report=report
    ).run(inputs)
    return all(np.array_equal(out, expected) for out in run.outputs)


def _gate_columns(entry, topo) -> tuple[bool, bool, bool]:
    eff = effective_gpu_topology(topo)
    report = verify_plan(entry.plan, topo=eff, raise_on_error=False)
    outcome = simulate_plan(entry.plan, topo=eff)
    ordered = check_plan_ordering(
        outcome.plan, outcome.dag, outcome.sim
    ).ok
    return report.ok, ordered, _bit_exact(entry.plan, report)


def run(
    topologies: list[PhysicalTopology] | None = None,
    *,
    sizes: tuple[float, ...] = SWEEP_SIZES,
    seed: int = 0,
) -> list[SynthRow]:
    """Tune every topology and tabulate synthesized-vs-builder winners."""
    rows: list[SynthRow] = []
    for topo in topologies if topologies is not None else default_topologies():
        result: TuneResult = tune(topo, sizes=sizes, seed=seed)
        for winner in result.winners:
            synth = winner.best_synth
            builder = winner.best_builder
            verified, ordered, exact = _gate_columns(synth, topo)
            if builder is not None:
                ratio = synth.time / builder.time
                builder_name, builder_us = (
                    builder.strategy, builder.time * 1e6,
                )
            else:
                ratio, builder_name, builder_us = float("nan"), "-", 0.0
            rows.append(SynthRow(
                topology=topo.name,
                nbytes=winner.nbytes,
                builder=builder_name,
                builder_us=builder_us,
                synth=f"{synth.strategy}@p{synth.pipeline}",
                synth_us=synth.time * 1e6,
                ratio=ratio,
                verified=verified,
                ordered=ordered,
                exact=exact,
            ))
    return rows


def format_table(rows: list[SynthRow]) -> str:
    headers = [
        "topology", "MB", "best builder", "us", "best synth", "us",
        "ratio", "verified", "ordered", "bit-exact",
    ]
    body = [
        [
            row.topology,
            f"{row.nbytes / 1e6:g}",
            row.builder,
            f"{row.builder_us:.1f}" if row.builder != "-" else "-",
            row.synth,
            f"{row.synth_us:.1f}",
            f"{row.ratio:.3f}" if row.ratio == row.ratio else "-",
            "yes" if row.verified else "NO",
            "yes" if row.ordered else "NO",
            "yes" if row.exact else "NO",
        ]
        for row in rows
    ]
    return render_table(
        headers, body,
        title="Synthesized vs hand-written plans (simulated AllReduce)",
    )
