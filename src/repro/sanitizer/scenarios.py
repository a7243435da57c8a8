"""Sanitizer scenario registry: every shipped runtime, plus seeded bugs.

Two families:

- **healthy** scenarios run each shipped collective on the one engine
  (tree, detoured double tree, non-overlapped baseline, ring,
  halving-doubling, queue-chained training, an interpreted plan, a
  fault-injected abort, and the recovery re-embed drill) under the
  tracer and expect a *clean* report — the zero-false-positive half of
  the sanitizer's contract;
- **seeded** scenarios run deliberately broken kernels (a dropped post,
  an unlock hoisted above the write it guards, overlapping unsynced
  writes, a semaphore wait cycle, a chunk rewritten while a zero-copy
  wire — direct or a detour's relay leg — still carries it) and expect
  the
  *exact* diagnostic — the true-positive half.

``repro sanitize run --all`` and the seeded regression tests both drive
this registry, so the CLI and the test suite can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.errors import AbortedError
from repro.sanitizer.report import SanitizerReport
from repro.sanitizer.tracer import tracing

__all__ = [
    "Expectation",
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "scenario_names",
    "run_scenario",
]


@dataclass(frozen=True)
class Expectation:
    """What a scenario's sanitizer report must contain.

    Attributes:
        kind: ``clean`` / ``race`` / ``wait_cycle``.
        chunk: for races, the racing chunk id the report must name.
        mentions: substrings the matching finding's text must contain
            (offending semaphore names, buffer labels, kernels).
    """

    kind: str
    chunk: int | None = None
    mentions: tuple[str, ...] = ()

    def check(self, report: SanitizerReport) -> tuple[bool, str]:
        """(passed, explanation) for ``report`` against this expectation."""
        if self.kind == "clean":
            if report.ok:
                return True, "clean as expected"
            return False, "expected clean, got:\n" + report.describe()
        pools = {
            "race": report.races,
            "wait_cycle": report.wait_cycles,
        }
        candidates = pools.get(self.kind)
        if candidates is None:
            return False, f"unknown expectation kind {self.kind!r}"
        for finding in candidates:
            if self.chunk is not None and finding.chunk != self.chunk:
                continue
            text = finding.describe()
            if all(m in text for m in self.mentions):
                return True, f"matched: {text.splitlines()[0]}"
        want = self.kind + (
            f" on chunk {self.chunk}" if self.chunk is not None else ""
        )
        if self.mentions:
            want += " mentioning " + ", ".join(repr(m) for m in self.mentions)
        return False, f"expected {want}; report was:\n" + report.describe()


@dataclass(frozen=True)
class Scenario:
    """A named workload to run under the tracer."""

    name: str
    seeded: bool
    expect: Expectation
    fn: Callable[[int], None]
    doc: str = ""


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    report: SanitizerReport
    passed: bool
    detail: str


SCENARIOS: dict[str, Scenario] = {}


def _scenario(name: str, *, seeded: bool, expect: Expectation):
    def register(fn: Callable[[int], None]) -> Callable[[int], None]:
        SCENARIOS[name] = Scenario(
            name=name,
            seeded=seeded,
            expect=expect,
            fn=fn,
            doc=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "",
        )
        return fn

    return register


def scenario_names(*, seeded: bool | None = None) -> list[str]:
    return [
        name
        for name, sc in SCENARIOS.items()
        if seeded is None or sc.seeded == seeded
    ]


def run_scenario(name: str, *, elems: int = 64) -> ScenarioResult:
    """Run one registered scenario under a fresh tracer and check it."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    with tracing() as traced:
        scenario.fn(elems)
    report = traced.report
    assert report is not None
    passed, detail = scenario.expect.check(report)
    return ScenarioResult(
        name=name, report=report, passed=passed, detail=detail
    )


# -- shared helpers -------------------------------------------------------


def _spin(timeout: float = 10.0):
    from repro.runtime.sync import SpinConfig

    return SpinConfig(timeout=timeout)


def _inputs(n: int, elems: int, seed: int = 7) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=elems) for _ in range(n)]


def _assert_summed(outputs, expected: np.ndarray) -> None:
    for out in outputs:
        if not np.allclose(out, expected):
            raise AssertionError("collective produced a wrong sum")


# -- healthy scenarios ----------------------------------------------------


def _tree_allreduce(trees, elems: int, **kwargs) -> None:
    """One 8-GPU tree AllReduce at K = 4, checked against the sum."""
    from repro.runtime.allreduce import TreeAllReduceRuntime

    runtime = TreeAllReduceRuntime(
        trees, total_elems=elems, chunks_per_tree=4, spin=_spin(), **kwargs
    )
    inputs = _inputs(8, elems)
    _assert_summed(runtime.run(inputs).outputs, sum(inputs))


@_scenario("tree", seeded=False, expect=Expectation("clean"))
def _run_tree(elems: int) -> None:
    """Single balanced binary tree, 8 GPUs, pipelined chunks."""
    from repro.topology.logical import balanced_binary_tree

    _tree_allreduce((balanced_binary_tree(8),), elems)


@_scenario("double_tree", seeded=False, expect=Expectation("clean"))
def _run_double_tree(elems: int) -> None:
    """Double tree with a detoured edge (relay thread blocks included)."""
    from repro.topology.logical import two_trees

    trees = two_trees(8)
    child, parent = trees[0].up_edges()[0]
    via = min(set(range(8)) - {child, parent})
    _tree_allreduce(trees, elems, detour_map={(child, parent): via})


@_scenario("double_tree_baseline", seeded=False, expect=Expectation("clean"))
def _run_double_tree_baseline(elems: int) -> None:
    """Double tree with separated (non-overlapped) phases."""
    from repro.topology.logical import two_trees

    _tree_allreduce(two_trees(8), elems, overlapped=False)


@_scenario("ring", seeded=False, expect=Expectation("clean"))
def _run_ring(elems: int) -> None:
    """Chunked two-phase ring AllReduce plan, 4 GPUs, interpreted."""
    from repro.plan.builders import build_ring_plan
    from repro.plan.interpreter import PlanInterpreter

    interp = PlanInterpreter(
        build_ring_plan(4, elems * 8.0), total_elems=elems, spin=_spin()
    )
    inputs = _inputs(4, elems)
    expected = sum(inputs)
    _assert_summed(interp.run(inputs).outputs, expected)


@_scenario("halving_doubling", seeded=False, expect=Expectation("clean"))
def _run_hd(elems: int) -> None:
    """Recursive halving-doubling AllReduce plan, 4 GPUs, interpreted."""
    from repro.plan.builders import build_halving_doubling_plan
    from repro.plan.interpreter import PlanInterpreter

    interp = PlanInterpreter(
        build_halving_doubling_plan(4, elems * 8.0),
        total_elems=elems,
        spin=_spin(),
    )
    inputs = _inputs(4, elems)
    expected = sum(inputs)
    _assert_summed(interp.run(inputs).outputs, expected)


@_scenario("queue_chained", seeded=False, expect=Expectation("clean"))
def _run_queue_chained(elems: int) -> None:
    """Gradient queuing + forward-compute chaining over a double tree."""
    from repro.dnn.layers import LayerSpec, NetworkModel
    from repro.runtime.allreduce import TreeAllReduceRuntime
    from repro.runtime.queue_runtime import ChainedTrainingRuntime
    from repro.topology.logical import two_trees

    half = elems // 2
    network = NetworkModel(
        name="sanitize",
        layers=(
            LayerSpec(name="L0", params=half, fwd_flops=1e6),
            LayerSpec(name="L1", params=elems - half, fwd_flops=1e6),
        ),
    )
    runtime = TreeAllReduceRuntime(
        two_trees(4),
        total_elems=elems,
        chunks_per_tree=2,
        spin=_spin(),
    )
    grads = _inputs(4, elems)
    expected = sum(grads)
    result = ChainedTrainingRuntime(runtime, network).run(grads)
    _assert_summed(result.report.outputs, expected)


@_scenario("plan_interpreter", seeded=False, expect=Expectation("clean"))
def _run_plan_interpreter(elems: int) -> None:
    """A compiled double-tree plan executed by the interpreter."""
    from repro.plan.builders import build_plan
    from repro.plan.interpreter import PlanInterpreter

    plan = build_plan(
        "double_tree", nnodes=4, nbytes=float(elems * 8), nchunks=4
    )
    interp = PlanInterpreter(plan, total_elems=elems, spin=_spin())
    inputs = _inputs(4, elems)
    expected = sum(inputs)
    _assert_summed(interp.run(inputs).outputs, expected)


@_scenario("fault_injected", seeded=False, expect=Expectation("clean"))
def _run_fault_injected(elems: int) -> None:
    """Injected GPU crash: the abort must not fabricate races/cycles."""
    from repro.runtime.allreduce import TreeAllReduceRuntime
    from repro.runtime.faults import CRASH, FaultPlan, GpuFault
    from repro.topology.logical import two_trees

    runtime = TreeAllReduceRuntime(
        two_trees(8),
        total_elems=elems,
        chunks_per_tree=4,
        spin=_spin(timeout=2.0),
        fault_plan=FaultPlan(
            gpu_faults=(GpuFault(2, CRASH, after_chunk=1),)
        ),
    )
    try:
        runtime.run(_inputs(8, elems))
    except AbortedError:
        pass
    else:
        raise AssertionError("injected crash did not abort the run")


@_scenario("recovery_reembed", seeded=False, expect=Expectation("clean"))
def _run_recovery(elems: int) -> None:
    """Crash mid-training, survivor re-embed, resume — all traced."""
    from repro.dnn.layers import LayerSpec, NetworkModel
    from repro.runtime.faults import CRASH, FaultPlan, GpuFault
    from repro.runtime.recovery import REEMBED, RecoveryPolicy, ResilientTrainer
    from repro.runtime.training import quadratic_gradient
    from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
    from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

    elems = max(elems, 64)
    rng = np.random.default_rng(11)
    targets = [rng.normal(size=elems) for _ in range(8)]
    trainer = ResilientTrainer(
        dgx1_topology(),
        NetworkModel(
            name="recover",
            layers=(LayerSpec(name="L0", params=elems, fwd_flops=1e6),),
        ),
        quadratic_gradient(targets),
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=0.02,
        policy=RecoveryPolicy(mode=REEMBED),
        spin=_spin(timeout=5.0),
        detour_preference=DETOUR_NODES,
    )
    report = trainer.train(
        rng.normal(size=elems),
        iterations=2,
        fault_plan=FaultPlan(gpu_faults=(GpuFault(3, CRASH, after_chunk=1),)),
        fault_at_iteration=1,
    )
    if not report.aborted:
        raise AssertionError("recovery drill did not observe the crash")


# -- seeded-broken scenarios ----------------------------------------------


@_scenario(
    "seeded_dropped_post",
    seeded=True,
    expect=Expectation("race", chunk=1, mentions=("read", "write")),
)
def _run_dropped_post(elems: int) -> None:
    """Producer writes two chunks but posts only once: the consumer's
    second read races the unpublished write (the dropped-post bug)."""
    from repro.runtime.cluster import KernelPool
    from repro.runtime.memory import ChunkLayout, GradientBuffer
    from repro.runtime.sync import DeviceSemaphore

    layout = ChunkLayout.split(max(elems, 8), ntrees=1, chunks_per_tree=4)
    buffer = GradientBuffer(
        np.zeros(layout.total_elems), layout, owner=0
    )
    handoff = DeviceSemaphore(2, spin=_spin(), name="handoff")

    def producer() -> None:
        buffer.overwrite(0, np.ones(layout.chunk_elems(0)))
        handoff.post()
        buffer.overwrite(1, np.ones(layout.chunk_elems(1)))
        # BUG: the post for chunk 1 is missing.

    def consumer() -> None:
        handoff.wait()
        buffer.read(0)  # published: ordered by the post
        buffer.read(1)  # unpublished: races the producer's write

    pool = KernelPool(join_timeout=10.0)
    pool.add("producer", producer)
    pool.add("consumer", consumer)
    pool.run()


@_scenario(
    "seeded_unlock_before_write",
    seeded=True,
    expect=Expectation("race", chunk=0, mentions=("reduce",)),
)
def _run_unlock_before_write(elems: int) -> None:
    """The unlock is hoisted above the accumulate it guards, so two
    reduction kernels' read-modify-writes of chunk 0 race."""
    from repro.runtime.cluster import KernelPool
    from repro.runtime.memory import ChunkLayout, GradientBuffer
    from repro.runtime.sync import DeviceLock

    layout = ChunkLayout.split(max(elems, 8), ntrees=1, chunks_per_tree=4)
    buffer = GradientBuffer(
        np.zeros(layout.total_elems), layout, owner=0
    )
    grad_lock = DeviceLock(_spin(), name="grad-lock")

    def reducer() -> None:
        grad_lock.lock()
        grad_lock.unlock()  # BUG: reordered above the accumulate
        buffer.accumulate(0, np.ones(layout.chunk_elems(0)))

    pool = KernelPool(join_timeout=10.0)
    pool.add("reduce-a", reducer)
    pool.add("reduce-b", reducer)
    pool.run()


@_scenario(
    "seeded_overlapping_writes",
    seeded=True,
    expect=Expectation("race", chunk=2, mentions=("write", "write")),
)
def _run_overlapping_writes(elems: int) -> None:
    """Two broadcast kernels write the same chunk with no ordering at
    all (an overlapping chunk assignment)."""
    from repro.runtime.cluster import KernelPool
    from repro.runtime.memory import ChunkLayout, GradientBuffer

    layout = ChunkLayout.split(max(elems, 8), ntrees=1, chunks_per_tree=4)
    buffer = GradientBuffer(
        np.zeros(layout.total_elems), layout, owner=0
    )

    def writer(value: float):
        def kernel() -> None:
            buffer.overwrite(
                2, np.full(layout.chunk_elems(2), value)
            )

        return kernel

    pool = KernelPool(join_timeout=10.0)
    pool.add("bcast-a", writer(1.0))
    pool.add("bcast-b", writer(2.0))
    pool.run()


def _rewrite_after_publish(elems: int, *, relay: bool) -> None:
    """A child reduce kernel writes its chunk again after publishing it
    on a zero-copy wire — a direct one, or a detour's first relay leg.
    The next reader's in-place read races that write; without a tracer,
    that reader's CRC catches the changed bytes."""
    import threading

    from repro.errors import LinkFaultError
    from repro.runtime.cluster import KernelPool, _transmit, _Wire
    from repro.runtime.memory import ChunkLayout, GradientBuffer
    from repro.runtime.sync import AbortCell

    layout = ChunkLayout.split(max(elems, 8), ntrees=1, chunks_per_tree=4)
    child_data, parent_data = _inputs(2, layout.total_elems)
    child = GradientBuffer(child_data, layout, owner=1)
    parent = GradientBuffer(parent_data, layout, owner=0)
    abort = AbortCell()

    def leg(name: str) -> _Wire:
        # Every leg aliases the flow source's (the child's) buffer.
        return _Wire(
            layout, capacity=4, spin=replace(_spin(), abort=abort),
            name=name, chunks=range(4), buffer=child.data,
            owner_buffer=child, zero_copy=True,
        )

    first = leg("plan reduce t0 1->2 flow 1->0" if relay
                else "plan reduce t0 1->0")
    last = leg("plan reduce t0 2->0 flow 1->0") if relay else first
    # Orders the reader after the rewrite without an edge the tracer can
    # see, so the CRC outcome is deterministic while the missing
    # happens-before edge stays the bug under test.
    rewritten = threading.Event()  # sync-lint: allow(raw-threading)

    def child_kernel() -> None:
        _transmit(first, 0, child.read_view(0), None, abort)
        # BUG: nobody has read the published partial yet.
        child.accumulate(0, np.ones(layout.chunk_elems(0)))
        rewritten.set()

    def relay_kernel() -> None:
        rewritten.wait(timeout=10.0)
        view, checksum = first.take_frame(0)
        _transmit(last, 0, view, None, abort, checksum)

    def parent_kernel() -> None:
        if not relay:
            rewritten.wait(timeout=10.0)
        parent.accumulate(0, last.take_view(0))

    pool = KernelPool(join_timeout=10.0, abort=abort)
    pool.add("reduce t0 g1", child_kernel)
    if relay:
        pool.add("relay-up t0 1->2->0", relay_kernel)
    pool.add("reduce t0 g0", parent_kernel)
    try:
        pool.run()
    except AbortedError as exc:
        if isinstance(exc.__cause__, LinkFaultError):
            return
        raise
    raise AssertionError("the CRC missed the rewritten chunk")


@_scenario(
    "seeded_zero_copy_rewrite",
    seeded=True,
    expect=Expectation(
        "race", chunk=0, mentions=("reduce t0 g1", "reduce t0 g0")
    ),
)
def _run_zero_copy_rewrite(elems: int) -> None:
    """A child rewrites its chunk after publishing it on a zero-copy
    wire: the parent's in-place read races the write."""
    _rewrite_after_publish(elems, relay=False)


@_scenario(
    "seeded_relay_rewrite",
    seeded=True,
    expect=Expectation(
        "race", chunk=0, mentions=("reduce t0 g1", "relay-up t0 1->2->0")
    ),
)
def _run_relay_rewrite(elems: int) -> None:
    """A child rewrites its chunk after publishing it on a detour: the
    relay's in-place read of the child's memory races the write."""
    _rewrite_after_publish(elems, relay=True)


@_scenario(
    "seeded_sem_cycle",
    seeded=True,
    expect=Expectation("wait_cycle", mentions=("S1", "S2")),
)
def _run_sem_cycle(elems: int) -> None:
    """Each kernel's second wait needs a post only the *other* blocked
    kernel could make: a circular wait the spin timeout turns into an
    abort, which the wait-graph names precisely."""
    del elems
    from repro.runtime.cluster import KernelPool
    from repro.runtime.sync import AbortCell, DeviceSemaphore

    abort = AbortCell()
    spin = replace(_spin(timeout=0.5), abort=abort)
    sem1 = DeviceSemaphore(2, spin=spin, name="S1")
    sem2 = DeviceSemaphore(2, spin=spin, name="S2")

    def kernel_a() -> None:
        sem2.post()
        sem1.wait()
        sem1.wait()  # BUG: needs a second S1 post that only b could make

    def kernel_b() -> None:
        sem1.post()
        sem2.wait()
        sem2.wait()  # BUG: needs a second S2 post that only a could make

    pool = KernelPool(join_timeout=10.0, abort=abort)
    pool.add("cycle-a", kernel_a)
    pool.add("cycle-b", kernel_b)
    try:
        pool.run()
    except AbortedError:
        pass
    else:
        raise AssertionError("seeded semaphore cycle did not deadlock")
