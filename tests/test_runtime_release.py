"""Per-run state is released by reference count, aborted runs included.

A collective's gradient buffers, links, semaphores and kernel frames
must form no reference cycle: once the caller drops the report (or the
:class:`~repro.errors.AbortedError`), every :class:`GradientBuffer` is
gone without waiting for the cyclic collector.  Each scenario runs with
the collector disabled, and afterwards ``gc.collect()`` must find no
unreachable object.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.dnn.layers import LayerSpec, NetworkModel
from repro.errors import AbortedError
from repro.plan import PlanInterpreter, build_plan
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.faults import CRASH, FaultPlan, GpuFault
from repro.runtime.memory import GradientBuffer
from repro.runtime.queue_runtime import FunctionalTrainer
from repro.runtime.sync import SpinConfig
from repro.runtime.training import quadratic_gradient
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

FAST = SpinConfig(timeout=10.0)
ELEMS = 256


def crash(gpu: int = 3, after_chunk: int = 1) -> FaultPlan:
    return FaultPlan(
        gpu_faults=(GpuFault(gpu, CRASH, after_chunk=after_chunk),)
    )


def tree_runtime(fault_plan=None) -> TreeAllReduceRuntime:
    return TreeAllReduceRuntime(
        dgx1_trees(),
        total_elems=ELEMS,
        chunks_per_tree=4,
        detour_map=DETOURED_EDGES,
        spin=FAST,
        fault_plan=fault_plan,
    )


def inputs() -> list[np.ndarray]:
    rng = np.random.default_rng(5)
    return [rng.normal(size=ELEMS) for _ in range(8)]


def run_tree(fault_plan=None):
    tree_runtime(fault_plan).run(inputs())


#: Built once: only the interpreter's run is under test.
PLAN = build_plan("double_tree", 8, ELEMS * 8, nchunks=4)


def run_plan(fault_plan=None):
    PlanInterpreter(
        PLAN, total_elems=ELEMS, spin=FAST, fault_plan=fault_plan
    ).run(inputs())


def run_trainer(fault_plan=None):
    net = NetworkModel(
        name="release",
        layers=tuple(
            LayerSpec(name=f"L{i}", params=ELEMS // 4, fwd_flops=1e6)
            for i in range(4)
        ),
    )
    trainer = FunctionalTrainer(
        tree_runtime(fault_plan), net, quadratic_gradient(inputs()),
        learning_rate=0.01,
    )
    trainer.train(np.zeros(ELEMS), iterations=2)


@pytest.fixture
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def buffer_refs(monkeypatch):
    """Weak references to every GradientBuffer built while active."""
    refs: list[weakref.ref] = []
    original = GradientBuffer.__init__

    def tracking(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(GradientBuffer, "__init__", tracking)
    return refs


def drive(scenario, aborted: bool) -> None:
    """Run one scenario and drop whatever it returned or raised.

    No name is bound to the exception: a handler that kept it would
    itself tie the traceback to this frame.
    """
    if not aborted:
        scenario()
        return
    try:
        scenario(crash())
    except AbortedError:
        return
    pytest.fail("the injected crash did not abort the run")


@pytest.mark.parametrize("aborted", [False, True], ids=["healthy", "aborted"])
@pytest.mark.parametrize(
    "scenario", [run_tree, run_plan, run_trainer],
    ids=["tree_runtime", "plan_interpreter", "functional_trainer"],
)
def test_run_state_freed_without_the_cyclic_collector(
    scenario, aborted, gc_disabled, buffer_refs
):
    # The first run may import modules and fill caches, which builds
    # cyclic objects of its own; measure the second.
    drive(scenario, aborted)
    gc.collect()
    buffer_refs.clear()
    drive(scenario, aborted)
    assert buffer_refs, "the scenario built no gradient buffers"
    alive = [ref for ref in buffer_refs if ref() is not None]
    assert not alive, f"{len(alive)} gradient buffers outlived the run"
    assert gc.collect() == 0
