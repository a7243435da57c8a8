"""Benchmark metric registry: what `repro bench run` measures.

Each metric is a deterministic workload timed with ``perf_counter``.
The *timing* numbers (value, per-iteration stats, the optional
``before`` reference measurement) are machine-dependent by nature; the
*structure* of a metric's result — its deterministic op count, unit,
direction, iteration budget — must be a pure function of (seed, code),
which is what the determinism property tests pin.

Every metric carries a ``gate`` flag: gated metrics participate in
``repro bench compare`` regression decisions; ungated ones are recorded
for trend inspection only.  Ratio-unit metrics (sanitizer overhead,
detached-tracer overhead) are machine-normalized by construction and
are never calibration-scaled by the comparator.

Where a hot path kept its pre-optimization implementation around as an
oracle (:func:`repro.runtime.memory.reduce_chunk_reference`,
:meth:`repro.sim.engine.DagSimulator.run_reference`), the metric also
times that reference and records it as ``before`` — the measured
speedup of the optimization pass, committed alongside the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.errors import BenchError

__all__ = [
    "BenchContext",
    "MetricResult",
    "MetricSpec",
    "METRICS",
    "metric_names",
    "calibrate",
]


@dataclass(frozen=True)
class BenchContext:
    """Knobs shared by every metric run.

    Attributes:
        seed: RNG seed for workload inputs (identical seed + code must
            give identical op counts).
        profile: ``"smoke"`` (CI-sized, seconds) or ``"full"``
            (nightly-sized).
    """

    seed: int = 2026
    profile: str = "smoke"

    @property
    def full(self) -> bool:
        return self.profile == "full"

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class MetricResult:
    """One metric's measurement.

    Attributes:
        value: the headline number, in :attr:`MetricSpec.unit`.
        ops: deterministic workload size (elements reduced, DAG ops,
            schedules run, ...) — identical across runs of the same
            seed and code.
        warmup / iters: the iteration budget actually used.
        timing: per-iteration seconds — ``{"mean", "min", "max"}``.
        before: the same measurement through the preserved
            pre-optimization reference path, when one exists.
    """

    value: float
    ops: int
    warmup: int
    iters: int
    timing: dict[str, float] = field(default_factory=dict)
    before: float | None = None


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    higher_is_better: bool
    gate: bool
    describe: str
    fn: Callable[[BenchContext], MetricResult]


def _samples(fn: Callable[[], object], *, warmup: int, iters: int) -> list[float]:
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(iters):
        t0 = perf_counter()
        fn()
        out.append(perf_counter() - t0)
    return out


def _stats(samples: list[float]) -> dict[str, float]:
    return {
        "mean": sum(samples) / len(samples),
        "min": min(samples),
        "max": max(samples),
    }


def calibrate() -> float:
    """Seconds for a fixed mixed numpy/Python workload on this machine.

    ``compare --normalize`` divides out the base/candidate calibration
    ratio so a committed baseline from one machine can gate a run on
    another without flagging the hardware gap itself as a regression.
    """
    a = np.arange(65536, dtype=np.float64)
    acc = 0.0
    t0 = perf_counter()
    for _ in range(40):
        a = a * 1.0000001 + 0.5
        acc += float(a[::257].sum())
        for i in range(2000):
            acc += i * 1e-9
    elapsed = perf_counter() - t0
    if acc == float("inf"):  # pragma: no cover - keeps the loop live
        raise BenchError("calibration overflow")
    return elapsed


# -- metric workloads ----------------------------------------------------


def _chunk_reduce(ctx: BenchContext) -> MetricResult:
    """Vectorized chunk reduce vs the per-element serial reference."""
    from repro.runtime.memory import (
        ChunkLayout,
        GradientBuffer,
        reduce_chunk_reference,
    )

    elems = 1 << 16 if ctx.full else 1 << 14
    rng = ctx.rng()
    layout = ChunkLayout.split(elems, ntrees=1, chunks_per_tree=1)
    buf = GradientBuffer(np.zeros(elems), layout)
    values = rng.normal(size=elems)
    warmup, iters = (5, 30) if ctx.full else (3, 10)
    fast = _samples(
        lambda: buf.accumulate(0, values), warmup=warmup, iters=iters
    )
    dst = np.zeros(elems)
    slow = _samples(
        lambda: reduce_chunk_reference(dst, values), warmup=1, iters=3
    )
    return MetricResult(
        value=min(fast),
        ops=elems,
        warmup=warmup,
        iters=iters,
        timing=_stats(fast),
        before=min(slow),
    )


def _tracer_detached(ctx: BenchContext) -> MetricResult:
    """Overhead ratio of a detached-tracer accumulate vs a raw loop."""
    from repro.runtime.memory import ChunkLayout, GradientBuffer

    elems = 1 << 15 if ctx.full else 1 << 14
    rng = ctx.rng()
    layout = ChunkLayout.split(elems, ntrees=1, chunks_per_tree=1)
    buf = GradientBuffer(np.zeros(elems), layout)
    values = rng.normal(size=elems)
    data = buf.data
    sl = layout.slice_of(0)
    reps = 50
    warmup, iters = (5, 30) if ctx.full else (3, 15)

    def traced() -> None:
        for _ in range(reps):
            buf.accumulate(0, values)

    def raw() -> None:
        for _ in range(reps):
            dst = data[sl]
            dst += values

    t = _samples(traced, warmup=warmup, iters=iters)
    r = _samples(raw, warmup=warmup, iters=iters)
    return MetricResult(
        value=min(t) / min(r),
        ops=reps,
        warmup=warmup,
        iters=iters,
        timing=_stats(t),
    )


def _runtime_iter(ctx: BenchContext) -> MetricResult:
    """Steady-state ring AllReduce iteration time on the virtual cluster."""
    from repro.plan import PlanInterpreter, build_ring_plan
    from repro.runtime.sync import SpinConfig

    p = 4
    elems = 1024 if ctx.full else 256
    rng = ctx.rng()
    inputs = [rng.normal(size=elems) for _ in range(p)]
    # Built once: verification and the aliasing proof are set-up.
    interp = PlanInterpreter(
        build_ring_plan(p, elems * 8.0),
        total_elems=elems,
        spin=SpinConfig(timeout=30.0),
    )
    warmup, iters = (2, 8) if ctx.full else (1, 3)

    def one_iter() -> None:
        interp.run(inputs)

    samples = _samples(one_iter, warmup=warmup, iters=iters)
    return MetricResult(
        value=min(samples),
        ops=p * 2 * (p - 1),
        warmup=warmup,
        iters=iters,
        timing=_stats(samples),
    )


def _sim_dag(ctx: BenchContext):
    """A layered transfer DAG with contended channels (built once)."""
    from repro.sim.dag import Dag
    from repro.sim.resources import Channel

    layers = 40 if ctx.full else 12
    width = 16
    dag = Dag()
    prev: list[int] = []
    for layer in range(layers):
        row = []
        for w in range(width):
            deps = [prev[w], prev[(w + 1) % width]] if prev else []
            row.append(
                dag.add(
                    ("chan", w % 4),
                    nbytes=64.0 + w,
                    deps=deps,
                    label=f"l{layer}w{w}",
                )
            )
        prev = row
    resources = {("chan", c): Channel(alpha=1e-6, beta=1e-9) for c in range(4)}
    return dag, resources


def _sim_events(ctx: BenchContext) -> MetricResult:
    """DES throughput (events/sec) vs the preserved reference loop."""
    from repro.sim.engine import DagSimulator

    dag, resources = _sim_dag(ctx)
    dag.validate()
    simulator = DagSimulator(resources)
    warmup, iters = (3, 20) if ctx.full else (2, 6)
    fast = _samples(
        lambda: simulator.run(dag, validate=False),
        warmup=warmup,
        iters=iters,
    )
    slow = _samples(
        lambda: simulator.run_reference(dag, validate=False),
        warmup=1,
        iters=max(2, iters // 2),
    )
    nops = len(dag.ops)
    return MetricResult(
        value=nops / min(fast),
        ops=nops,
        warmup=warmup,
        iters=iters,
        timing=_stats(fast),
        before=nops / min(slow),
    )


def _plan_compile(ctx: BenchContext) -> MetricResult:
    """Plan build + route-legalization + static verification time."""
    from repro.plan.passes import compile_plan
    from repro.plan.verifier import verify_plan
    from repro.plan.builders import build_plan
    from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
    from repro.topology.dgx1_trees import dgx1_trees
    from repro.topology.routing import Router

    topo = dgx1_topology()
    router = Router(topo, detour_preference=DETOUR_NODES)
    nchunks = 6 if ctx.full else 3
    warmup, iters = (2, 10) if ctx.full else (1, 4)

    def compile_and_verify():
        plan = build_plan(
            "double_tree",
            8,
            4096.0,
            nchunks=nchunks,
            overlapped=True,
            trees=dgx1_trees(),
        )
        legal, _ = compile_plan(plan, topo, router=router)
        verify_plan(legal, topo=topo)
        return legal

    samples = _samples(compile_and_verify, warmup=warmup, iters=iters)
    nops = len(compile_and_verify().ops)
    return MetricResult(
        value=min(samples),
        ops=nops,
        warmup=warmup,
        iters=iters,
        timing=_stats(samples),
    )


def _plan_analyze(ctx: BenchContext) -> MetricResult:
    """Full static-analysis pass (verify + ordering proof + bound).

    This is the cost the autotuner pays per candidate *instead of* a
    DES run, so it must stay far below simulation time for pruning to
    pay off.
    """
    from repro.analyze.core import analyze_plan
    from repro.plan.passes import compile_plan
    from repro.plan.builders import build_plan
    from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
    from repro.topology.dgx1_trees import dgx1_trees
    from repro.topology.routing import Router

    topo = dgx1_topology()
    router = Router(topo, detour_preference=DETOUR_NODES)
    nchunks = 6 if ctx.full else 3
    warmup, iters = (2, 10) if ctx.full else (1, 4)
    plan = build_plan(
        "double_tree",
        8,
        4096.0,
        nchunks=nchunks,
        overlapped=True,
        trees=dgx1_trees(),
    )
    compiled, _ = compile_plan(plan, topo, router=router)

    def analyze():
        report = analyze_plan(compiled, topo=topo)
        if not report.ok:  # pragma: no cover - workload is legal
            raise BenchError("bench plan failed static analysis")
        return report

    samples = _samples(analyze, warmup=warmup, iters=iters)
    return MetricResult(
        value=min(samples),
        ops=len(compiled.ops),
        warmup=warmup,
        iters=iters,
        timing=_stats(samples),
    )


def _plan_synthesize(ctx: BenchContext) -> MetricResult:
    """Plan synthesis + autotune wall-clock (smoke-size sweep).

    One op = one tuned topology: the full synthesize -> gate -> score
    pipeline over the smoke sizes on DGX-1 (plus DGX-2 under the full
    profile, where the topology searches dominate).
    """
    from repro.synth.search import search_structures
    from repro.synth.tune import SMOKE_SIZES, tune
    from repro.topology.dgx1 import dgx1_topology
    from repro.topology.dgx2 import dgx2_topology

    topos = [dgx1_topology()]
    if ctx.full:
        topos.append(dgx2_topology())
    iterations, restarts = (400, 2) if ctx.full else (200, 1)

    def synthesize_and_tune() -> int:
        nops = 0
        for topo in topos:
            structures = search_structures(
                topo,
                seed=ctx.seed,
                iterations=iterations,
                restarts=restarts,
            )
            result = tune(
                topo,
                sizes=SMOKE_SIZES,
                pipelines=(1, 2),
                seed=ctx.seed,
                structures=structures,
            )
            nops += sum(len(w.best.plan.ops) for w in result.winners)
        return nops

    warmup, iters = (1, 4) if ctx.full else (1, 2)
    samples = _samples(synthesize_and_tune, warmup=warmup, iters=iters)
    return MetricResult(
        value=min(samples) / len(topos),
        ops=len(topos),
        warmup=warmup,
        iters=iters,
        timing=_stats(samples),
    )


def _fuzz_schedules(ctx: BenchContext) -> MetricResult:
    """Schedule-fuzzer throughput (schedules/sec, shrinking disabled)."""
    from repro.fuzz.harness import fuzz_scenario

    schedules = 6 if ctx.full else 2
    elems = 32

    def burst() -> None:
        outcome = fuzz_scenario(
            "tree",
            schedules=schedules,
            base_seed=ctx.seed,
            elems=elems,
            shrink=False,
        )
        if outcome.failure is not None:  # pragma: no cover - real bug
            raise BenchError(
                f"fuzz bench hit a real ordering failure: {outcome.failure}"
            )

    warmup, iters = (1, 3) if ctx.full else (0, 2)
    samples = _samples(burst, warmup=warmup, iters=max(iters, 1))
    return MetricResult(
        value=schedules / min(samples),
        ops=schedules,
        warmup=warmup,
        iters=max(iters, 1),
        timing=_stats(samples),
    )


def _sanitizer_overhead(ctx: BenchContext) -> MetricResult:
    """Traced / untraced wall-clock ratio for a ring AllReduce run."""
    from repro.plan import PlanInterpreter, build_ring_plan
    from repro.runtime.sync import SpinConfig
    from repro.sanitizer import hooks
    from repro.sanitizer.tracer import Tracer

    p = 4
    elems = 256
    rng = ctx.rng()
    inputs = [rng.normal(size=elems) for _ in range(p)]
    interp = PlanInterpreter(
        build_ring_plan(p, elems * 8.0),
        total_elems=elems,
        spin=SpinConfig(timeout=30.0),
    )

    def plain() -> None:
        interp.run(inputs)

    def traced() -> None:
        hooks.push(Tracer())
        try:
            plain()
        finally:
            hooks.pop()

    warmup, iters = (2, 6) if ctx.full else (1, 3)
    t_plain = _samples(plain, warmup=warmup, iters=iters)
    t_traced = _samples(traced, warmup=warmup, iters=iters)
    return MetricResult(
        value=min(t_traced) / min(t_plain),
        ops=p * 2 * (p - 1),
        warmup=warmup,
        iters=iters,
        timing=_stats(t_traced),
    )


METRICS: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        MetricSpec(
            name="chunk_reduce",
            unit="s/op",
            higher_is_better=False,
            gate=True,
            describe="vectorized chunk reduce (before: per-element loop)",
            fn=_chunk_reduce,
        ),
        MetricSpec(
            name="tracer_detached",
            unit="ratio",
            higher_is_better=False,
            # Recorded for the trajectory but not regression-gated: the
            # ratio sits so close to 1.0 that scheduler noise swamps a
            # 15% threshold.  The hard bound lives in
            # tests/test_hotpath_exactness.py (<= 1.05x, best-of-N).
            gate=False,
            describe="detached-tracer accumulate overhead vs raw loop",
            fn=_tracer_detached,
        ),
        MetricSpec(
            name="runtime_iter",
            unit="s/iter",
            higher_is_better=False,
            gate=True,
            describe="steady-state ring AllReduce iteration time",
            fn=_runtime_iter,
        ),
        MetricSpec(
            name="sim_events",
            unit="events/s",
            higher_is_better=True,
            gate=True,
            describe="DES throughput (before: reference event loop)",
            fn=_sim_events,
        ),
        MetricSpec(
            name="plan_compile",
            unit="s/op",
            higher_is_better=False,
            gate=True,
            describe="plan compile + verify wall-clock",
            fn=_plan_compile,
        ),
        MetricSpec(
            name="plan_analyze",
            unit="s/op",
            higher_is_better=False,
            gate=True,
            describe="static analysis (verify + ordering + bound)",
            fn=_plan_analyze,
        ),
        MetricSpec(
            name="plan_synthesize",
            unit="s/op",
            higher_is_better=False,
            gate=True,
            describe="topology synthesis + plan-IR autotune wall-clock",
            fn=_plan_synthesize,
        ),
        MetricSpec(
            name="fuzz_schedules",
            unit="schedules/s",
            higher_is_better=True,
            gate=True,
            describe="schedule-fuzzer throughput (shrink disabled)",
            fn=_fuzz_schedules,
        ),
        MetricSpec(
            name="sanitizer_overhead",
            unit="ratio",
            higher_is_better=False,
            gate=True,
            describe="traced/untraced ring AllReduce wall-clock ratio",
            fn=_sanitizer_overhead,
        ),
    )
}


def metric_names() -> list[str]:
    return list(METRICS)
