"""Exact work counters for the hot paths, and two speedup floors.

Each counter test pins how much work one hot path does — semaphore
operations, thread starts, tracer events, scheduler points, verifier
passes, PlanOp rows, tuner candidates, DES heap operations — to the
exact count the code gives today.  A count does not depend on the
machine or its load, so one extra unit of work on any of these paths
fails here everywhere, where a wall-clock gate would need a noise
margin wider than the change it is meant to catch.

The two ratio floors time a vectorized path against the serial
reference it is pinned bit-exact to, in-process and best-of-N.
Wall-clock performance is measured end to end by ``benchmarks/e2e``.
"""

import heapq
import threading
from collections import Counter
from time import perf_counter

import numpy as np
import pytest

from repro.analyze.core import analyze_plan
from repro.fuzz.harness import fuzz_scenario
from repro.plan import PlanInterpreter, build_ring_plan, compile_plan
from repro.plan import verifier
from repro.plan.builders import build_plan
from repro.runtime.memory import (
    ChunkLayout,
    GradientBuffer,
    reduce_chunk_reference,
)
from repro.runtime.sync import DeviceSemaphore, SpinConfig
from repro.sanitizer import hooks
from repro.sanitizer.tracer import Tracer
from repro.sim.dag import Dag
from repro.sim.engine import DagSimulator
from repro.sim.resources import Channel
from repro.synth.search import search_structures
from repro.synth.tune import SMOKE_SIZES, tune
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import dgx1_trees
from repro.topology.routing import Router

SEED = 2026


def count_calls(monkeypatch, counts: Counter, owner, name: str) -> None:
    """Wrap ``owner.name`` so each call bumps ``counts[name]``."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def best_of(fn, n: int) -> float:
    fn()
    best = float("inf")
    for _ in range(n):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


# -- the interpreted ring -------------------------------------------------


@pytest.fixture
def ring():
    """The 4-GPU interpreted ring at 256 elements, and its inputs."""
    nnodes, elems = 4, 256
    rng = np.random.default_rng(SEED)
    inputs = [rng.normal(size=elems) for _ in range(nnodes)]
    interp = PlanInterpreter(
        build_ring_plan(nnodes, elems * 8.0),
        total_elems=elems,
        spin=SpinConfig(timeout=30.0),
    )
    return interp, inputs


class TestInterpretedRing:
    def test_each_run_does_the_same_sync_work(self, ring, monkeypatch):
        # 2 (P - 1) = 6 ring steps x 4 GPUs, one frame each: 24 posts
        # and 24 waits; one thread block per GPU; every wire aliases.
        interp, inputs = ring
        counts = Counter()
        count_calls(monkeypatch, counts, DeviceSemaphore, "post")
        count_calls(monkeypatch, counts, DeviceSemaphore, "wait")
        count_calls(monkeypatch, counts, threading.Thread, "start")
        for _ in range(3):
            counts.clear()
            report = interp.run(inputs)
            assert counts == {"post": 24, "wait": 24, "start": 4}
            assert report.staged_bytes == 0

    def test_traced_run_emits_a_fixed_event_set(self, ring):
        # The tracer's cost is per event.  ``sem_block`` is left out:
        # whether a wait finds its frame already posted is a race.
        interp, inputs = ring
        counts = Counter()

        class CountingTracer(Tracer):
            def on_sync(self, kind, obj, detail=None):
                if kind != "sem_block":
                    counts[kind] += 1
                super().on_sync(kind, obj, detail)

            def on_access(self, kind, buffer, chunk):
                counts[kind] += 1
                super().on_access(kind, buffer, chunk)

        for _ in range(2):
            counts.clear()
            tracer = CountingTracer()
            hooks.push(tracer)
            try:
                interp.run(inputs)
            finally:
                hooks.pop()
            assert tracer.analyze().ok
            assert counts == {
                "fork": 1, "thread_start": 4, "thread_end": 4,
                "join_all": 1, "sem_post": 24, "sem_wait": 24,
                "read": 48, "reduce": 12, "write": 12,
            }
            assert sum(counts.values()) == 130


# -- the tree runtime -----------------------------------------------------


def test_train_cc_allreduce_does_a_fixed_amount_of_work(monkeypatch):
    # One AllReduce in the train_cc_resnet50 configuration: the DGX-1
    # trees with the 2-4 detour via GPU 0, K = 8, overlapped, 25,508
    # elements.  Frames: 7 edges x 2 directions x 8 chunks per tree,
    # plus the detour's second hop both ways (16) = 240 posts and 240
    # waits; 8 GPUs x 16 chunks = 128 enqueue posts; each root's
    # reduced-chunk marker is 1 event set and 2 waits per chunk; 32
    # tree thread blocks + 2 relays = 34 threads; every wire aliases.
    # The baseline a persistent thread per GPU is meant to cut.
    from repro.runtime import TreeAllReduceRuntime
    from repro.runtime.sync import DeviceEvent
    from repro.topology.dgx1_trees import DETOURED_EDGES

    runtime = TreeAllReduceRuntime(
        dgx1_trees(), total_elems=25_508, chunks_per_tree=8,
        detour_map=DETOURED_EDGES, spin=SpinConfig(timeout=30.0),
    )
    rng = np.random.default_rng(SEED)
    inputs = [rng.normal(size=25_508) for _ in range(8)]
    sems, events = Counter(), Counter()
    count_calls(monkeypatch, sems, DeviceSemaphore, "post")
    count_calls(monkeypatch, sems, DeviceSemaphore, "wait")
    count_calls(monkeypatch, events, DeviceEvent, "set")
    count_calls(monkeypatch, events, DeviceEvent, "wait")
    count_calls(monkeypatch, events, threading.Thread, "start")
    for _ in range(2):
        sems.clear()
        events.clear()
        report = runtime.run(inputs)
        assert sems == {"post": 368, "wait": 240}
        assert events == {"set": 16, "wait": 32, "start": 34}
        assert report.staged_bytes == 0


# -- the schedule fuzzer --------------------------------------------------


@pytest.mark.no_fuzz
def test_fuzzed_tree_visits_a_fixed_number_of_points():
    # Two seeded schedules of the tree runtime at 32 elements: every
    # sync point the chaos scheduler is offered, summed — 358 per run:
    # 88 semaphore posts, 56 waits, 4 event sets, 8 event waits, 112
    # reads, 28 reduces, 28 writes, 16 thread starts and ends, a fork
    # and a join.
    outcome = fuzz_scenario("tree", schedules=2, base_seed=SEED, elems=32)
    assert outcome.ok
    assert outcome.points == 716


# -- plan compile, verify and analyze -------------------------------------


@pytest.fixture
def verifier_calls(monkeypatch):
    counts = Counter()
    count_calls(monkeypatch, counts, verifier, "match_wires")
    count_calls(monkeypatch, counts, verifier, "_ancestors")
    return counts


class TestPlanPasses:
    """The DGX-1 double tree at K = 3: 174 ops, 186 once legalized."""

    @pytest.fixture
    def logical(self):
        plan = build_plan(
            "double_tree", 8, 4096.0, nchunks=3, overlapped=True,
            trees=dgx1_trees(),
        )
        assert len(plan) == 174
        return plan

    @pytest.fixture
    def router(self, dgx1):
        return Router(dgx1, detour_preference=DETOUR_NODES)

    @pytest.fixture
    def compiled(self, dgx1, logical, router):
        legal, _ = compile_plan(logical, dgx1, router=router)
        assert len(legal) == 186
        return legal

    def test_compile_runs_no_verifier_pass(
        self, dgx1, logical, router, verifier_calls, plan_rows
    ):
        compile_plan(logical, dgx1, router=router)
        assert verifier_calls == {}
        assert plan_rows == []

    def test_verify_pairs_wires_and_closes_reach_once(
        self, dgx1, compiled, verifier_calls, plan_rows
    ):
        verifier.verify_plan(compiled, topo=dgx1)
        assert verifier_calls == {"match_wires": 1, "_ancestors": 1}
        assert plan_rows == []

    def test_analyze_pairs_wires_and_closes_reach_once(
        self, dgx1, compiled, verifier_calls, plan_rows
    ):
        assert analyze_plan(compiled, topo=dgx1).ok
        assert verifier_calls == {"match_wires": 1, "_ancestors": 1}
        assert plan_rows == []


# -- synthesis and autotune -----------------------------------------------


def test_smoke_tune_simulates_only_unpruned_candidates(monkeypatch):
    topo = dgx1_topology()
    structures = search_structures(
        topo, seed=SEED, iterations=200, restarts=1
    )
    counts = Counter()
    count_calls(monkeypatch, counts, DagSimulator, "run")
    result = tune(
        topo, sizes=SMOKE_SIZES, pipelines=(1, 2), seed=SEED,
        structures=structures,
    )
    assert (result.candidates, result.simulated, result.pruned) == (
        36, 12, 24
    )
    assert counts == {"run": 12}


# -- the DES --------------------------------------------------------------


def layered_dag(layers: int):
    """``layers`` layers of 16 transfers on 4 contended channels."""
    dag = Dag()
    prev: list[int] = []
    width = 16
    for layer in range(layers):
        prev = [
            dag.add(
                ("chan", w % 4),
                nbytes=64.0 + w,
                deps=[prev[w], prev[(w + 1) % width]] if prev else [],
                label=f"l{layer}w{w}",
            )
            for w in range(width)
        ]
    dag.validate()
    resources = {
        ("chan", c): Channel(alpha=1e-6, beta=1e-9) for c in range(4)
    }
    return dag, DagSimulator(resources)


class TestDes:
    def test_heap_operations_per_run(self, monkeypatch):
        # One event push and pop per op.  Every op here waits in its
        # channel's ready heap, so one ready pop per op too; the 16 ops
        # ready at time zero start there presorted, without a push.
        dag, simulator = layered_dag(12)
        counts = Counter()
        count_calls(monkeypatch, counts, heapq, "heappush")
        count_calls(monkeypatch, counts, heapq, "heappop")
        simulator.run(dag, validate=False)
        assert len(dag) == 192
        assert counts == {"heappush": 368, "heappop": 384}

    @pytest.mark.no_sanitize
    @pytest.mark.no_fuzz
    def test_run_beats_the_reference_loop(self):
        dag, simulator = layered_dag(40)
        speedup = max(
            best_of(lambda: simulator.run_reference(dag, validate=False), 5)
            / best_of(lambda: simulator.run(dag, validate=False), 5)
            for _ in range(3)
        )
        assert speedup >= 1.3, f"DES run only {speedup:.2f}x the reference"


# -- the chunk reduce -----------------------------------------------------


@pytest.mark.no_sanitize
@pytest.mark.no_fuzz
def test_accumulate_beats_the_serial_reduce():
    elems = 1 << 14
    layout = ChunkLayout.split(elems, ntrees=1, chunks_per_tree=1)
    buf = GradientBuffer(np.zeros(elems), layout)
    values = np.random.default_rng(SEED).normal(size=elems)
    dst = np.zeros(elems)
    speedup = max(
        best_of(lambda: reduce_chunk_reference(dst, values), 3)
        / best_of(lambda: buf.accumulate(0, values), 3)
        for _ in range(3)
    )
    assert speedup >= 1.3, f"accumulate only {speedup:.2f}x the serial reduce"
