"""Sanitizer core: vector clocks, race detection, graph analyses, and
clean bills of health for every shipped runtime.

The seeded-bug scenarios (true-positive power and exact diagnostics)
live in ``test_sanitizer_seeded.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import AbortedError
from repro.plan import (
    PlanInterpreter,
    build_halving_doubling_plan,
    build_ring_plan,
)
from repro.runtime.faults import CRASH, FaultPlan, GpuFault
from repro.runtime.sync import SpinConfig
from repro.sanitizer.lockgraph import (
    BlockedWait,
    find_post_order_cycles,
    find_wait_cycles,
)
from repro.sanitizer.races import Access, MemoryState
from repro.sanitizer.scenarios import run_scenario, scenario_names
from repro.sanitizer.tracer import Tracer, tracing
from repro.sanitizer.vectorclock import VectorClock

FAST = SpinConfig(timeout=10.0)


# -- vector clocks --------------------------------------------------------


class TestVectorClock:
    def test_fresh_clock_is_zero(self):
        assert VectorClock().get(0) == 0

    def test_tick_is_per_component(self):
        clock = VectorClock()
        clock.tick(2)
        clock.tick(2)
        clock.tick(5)
        assert clock.get(2) == 2
        assert clock.get(5) == 1
        assert clock.get(0) == 0

    def test_join_is_pointwise_max(self):
        a, b = VectorClock(), VectorClock()
        a.tick(0), a.tick(0), b.tick(0), b.tick(1)
        a.join(b)
        assert a.get(0) == 2
        assert a.get(1) == 1

    def test_covers(self):
        a = VectorClock()
        a.tick(0)
        assert a.covers(0, 1)
        assert not a.covers(0, 2)
        assert a.covers(7, 0)  # zero entries are trivially covered

    def test_copy_is_independent(self):
        a = VectorClock()
        a.tick(0)
        b = a.copy()
        b.tick(0)
        assert a.get(0) == 1
        assert b.get(0) == 2


# -- the FastTrack-style detector in isolation ----------------------------


def _access(tid: int, clock: VectorClock, kind: str) -> Access:
    return Access(
        thread=f"t{tid}",
        tid=tid,
        clock=clock.get(tid),
        kind=kind,
        site=f"site{tid}",
        last_sync="(unit)",
    )


class TestMemoryState:
    def test_ordered_write_then_read_is_clean(self):
        mem = MemoryState()
        writer, reader = VectorClock(), VectorClock()
        writer.tick(0)
        mem.on_access("buf", 0, _access(0, writer, "write"), writer)
        reader.tick(1)
        reader.join(writer)  # the sync edge
        mem.on_access("buf", 0, _access(1, reader, "read"), reader)
        assert mem.races == []

    def test_unordered_write_then_read_races(self):
        mem = MemoryState()
        writer, reader = VectorClock(), VectorClock()
        writer.tick(0)
        reader.tick(1)
        mem.on_access("buf", 3, _access(0, writer, "write"), writer)
        mem.on_access("buf", 3, _access(1, reader, "read"), reader)
        assert len(mem.races) == 1
        race = mem.races[0]
        assert race.buffer == "buf"
        assert race.chunk == 3
        assert {race.first.kind, race.second.kind} == {"write", "read"}

    def test_concurrent_reads_do_not_race(self):
        mem = MemoryState()
        a, b = VectorClock(), VectorClock()
        a.tick(0)
        b.tick(1)
        mem.on_access("buf", 0, _access(0, a, "read"), a)
        mem.on_access("buf", 0, _access(1, b, "read"), b)
        assert mem.races == []

    def test_reduce_counts_as_write(self):
        # numpy in-place accumulate is a read-modify-write: two unordered
        # reduces of the same chunk can lose an addend.
        mem = MemoryState()
        a, b = VectorClock(), VectorClock()
        a.tick(0)
        b.tick(1)
        mem.on_access("buf", 1, _access(0, a, "reduce"), a)
        mem.on_access("buf", 1, _access(1, b, "reduce"), b)
        assert len(mem.races) == 1

    def test_write_after_unordered_read_races(self):
        mem = MemoryState()
        reader, writer = VectorClock(), VectorClock()
        reader.tick(0)
        writer.tick(1)
        mem.on_access("buf", 0, _access(0, reader, "read"), reader)
        mem.on_access("buf", 0, _access(1, writer, "write"), writer)
        assert len(mem.races) == 1

    def test_distinct_chunks_never_interact(self):
        mem = MemoryState()
        a, b = VectorClock(), VectorClock()
        a.tick(0)
        b.tick(1)
        mem.on_access("buf", 0, _access(0, a, "write"), a)
        mem.on_access("buf", 1, _access(1, b, "write"), b)
        assert mem.races == []

    def test_duplicate_race_reported_once(self):
        mem = MemoryState()
        a, b = VectorClock(), VectorClock()
        a.tick(0)
        b.tick(1)
        mem.on_access("buf", 0, _access(0, a, "write"), a)
        mem.on_access("buf", 0, _access(1, b, "write"), b)
        mem.on_access("buf", 0, _access(1, b, "write"), b)
        assert len(mem.races) == 1


# -- graph analyses in isolation ------------------------------------------


def _blocked(thread: str, sem: str) -> BlockedWait:
    return BlockedWait(thread=thread, sem=sem, what="wait", site="s")


class TestWaitCycles:
    def test_two_thread_cycle(self):
        blocked = [_blocked("a", "S1"), _blocked("b", "S2")]
        posters = {"S1": {"b"}, "S2": {"a"}}
        cycles = find_wait_cycles(blocked, posters)
        assert len(cycles) == 1

    def test_blocked_on_live_poster_is_not_a_cycle(self):
        # "c" (not blocked) can still post S1: no deadlock.
        blocked = [_blocked("a", "S1")]
        posters = {"S1": {"c"}}
        assert find_wait_cycles(blocked, posters) == []

    def test_post_order_cycle_flagged(self):
        # Both threads only post after consuming from the other sem, and
        # neither sem has an unconditional (credit-granting) post.
        programs = {
            "a": [("consume", "S1"), ("post", "S2")],
            "b": [("consume", "S2"), ("post", "S1")],
        }
        assert len(find_post_order_cycles(programs)) == 1

    def test_unconditional_post_breaks_the_cycle(self):
        # The ring pattern: someone posts before any consume.
        programs = {
            "a": [("post", "S2"), ("consume", "S1"), ("post", "S2")],
            "b": [("consume", "S2"), ("post", "S1")],
        }
        assert find_post_order_cycles(programs) == []


# -- every scenario, through the registry ---------------------------------


@pytest.mark.parametrize("name", scenario_names(seeded=False))
def test_healthy_scenario_is_clean(name):
    result = run_scenario(name, elems=64)
    assert result.passed, result.detail
    assert result.report.ok


def test_scenario_registry_covers_all_runtimes():
    names = set(scenario_names())
    for expected in (
        "tree", "double_tree", "double_tree_baseline", "ring",
        "halving_doubling", "queue_chained", "plan_interpreter",
        "fault_injected", "recovery_reembed",
    ):
        assert expected in names


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario("nope")


# -- satellite 1: ring/HD plans join the abort protocol -------------------

RING_AND_HD = pytest.mark.parametrize(
    "build",
    [build_ring_plan, build_halving_doubling_plan],
    ids=["ring", "halving_doubling"],
)


class TestRingHdAbort:
    """A crashing GPU must abort interpreted ring/HD runs fast (abort
    flag), not strand peers spinning until the full timeout."""

    @RING_AND_HD
    def test_crashing_kernel_aborts_fast(self, build):
        interp = PlanInterpreter(
            build(4, 512.0),
            total_elems=64,
            spin=SpinConfig(timeout=30.0),
            fault_plan=FaultPlan(
                gpu_faults=(GpuFault(2, CRASH, after_chunk=0),)
            ),
        )
        inputs = [np.full(64, float(g)) for g in range(4)]
        started = time.monotonic()
        with pytest.raises(AbortedError) as excinfo:
            interp.run(inputs)
        elapsed = time.monotonic() - started
        # Fail-fast: well under the 30s spin timeout the peers would
        # otherwise burn.
        assert elapsed < 10.0
        assert "injected crash on gpu 2" in str(excinfo.value)
        assert interp.abort_cell is not None
        assert interp.abort_cell.is_set()

    @pytest.mark.parametrize("reason, cycle", [
        ("kernel 'crasher' failed: RuntimeError('boom')", False),
        ("semaphore 'S1': wait timed out", True),
    ])
    def test_abort_reason_decides_abandoned_blocks(self, reason, cycle):
        # Two threads each post what the other waits on, then block and
        # leave through the abort.  After a crash those waits were
        # abandoned, not deadlocked; after a timeout they are the cycle.
        import threading

        class Obj:
            def __init__(self, name):
                self.name = name

        tracer, pool = Tracer(), Obj("pool")
        s1, s2 = Obj("S1"), Obj("S2")

        def kernel(post, block):
            tracer.on_sync("sem_post", post)
            tracer.on_sync("sem_block", block, "wait")
            tracer.on_sync("thread_end", pool, reason)

        for name, post, block in (("a", s2, s1), ("b", s1, s2)):
            thread = threading.Thread(
                target=kernel, args=(post, block), name=name
            )
            thread.start()
            thread.join()
        report = tracer.analyze()
        assert bool(report.wait_cycles) is cycle
        assert len(report.blocked) == (2 if cycle else 0)

    @RING_AND_HD
    def test_healthy_run_still_exact(self, build):
        interp = PlanInterpreter(build(4, 512.0), total_elems=64, spin=FAST)
        inputs = [np.full(64, float(g + 1)) for g in range(4)]
        report = interp.run(inputs)
        for out in report.outputs:
            np.testing.assert_allclose(out, np.full(64, 10.0))
        assert interp.abort_cell is not None
        assert not interp.abort_cell.is_set()


# -- satellite 6: abort diagnostics carry sanitizer sync tails ------------


def test_abort_dump_includes_sync_trace_tails():
    from repro.runtime.allreduce import TreeAllReduceRuntime
    from repro.runtime.faults import CRASH, FaultPlan, GpuFault
    from repro.topology.logical import two_trees

    runtime = TreeAllReduceRuntime(
        two_trees(8),
        total_elems=64,
        chunks_per_tree=4,
        spin=SpinConfig(timeout=2.0),
        fault_plan=FaultPlan(
            gpu_faults=(GpuFault(2, CRASH, after_chunk=1),)
        ),
    )
    inputs = [np.full(64, float(g)) for g in range(8)]
    with tracing():
        with pytest.raises(AbortedError) as excinfo:
            runtime.run(inputs)
    diag = excinfo.value.diagnostics
    assert "-- sanitizer: last sync ops per thread --" in diag
    # The tails show actual semantic sync ops, not raw spin iterations.
    assert "sem_post" in diag or "sem_wait" in diag


@pytest.mark.no_sanitize  # the point is the *absence* of a tracer
def test_abort_dump_without_tracer_has_no_sanitizer_section():
    from repro.runtime.allreduce import TreeAllReduceRuntime
    from repro.runtime.faults import CRASH, FaultPlan, GpuFault
    from repro.topology.logical import two_trees

    runtime = TreeAllReduceRuntime(
        two_trees(8),
        total_elems=64,
        chunks_per_tree=4,
        spin=SpinConfig(timeout=2.0),
        fault_plan=FaultPlan(
            gpu_faults=(GpuFault(2, CRASH, after_chunk=1),)
        ),
    )
    inputs = [np.full(64, float(g)) for g in range(8)]
    with pytest.raises(AbortedError) as excinfo:
        runtime.run(inputs)
    assert "sanitizer" not in excinfo.value.diagnostics


# -- tracer plumbing ------------------------------------------------------


def test_tracing_context_sets_report():
    with tracing() as traced:
        pass
    assert traced.report is not None
    assert traced.report.ok
    assert traced.report.nevents == 0


def test_untraced_runs_emit_nothing():
    tracer = Tracer()
    interp = PlanInterpreter(
        build_ring_plan(4, 512.0), total_elems=64, spin=FAST
    )
    interp.run([np.full(64, float(g)) for g in range(4)])
    assert tracer.nevents == 0  # never pushed


def test_report_json_round_trip_renders():
    from repro.sanitizer.report import render_report_dict

    result = run_scenario("ring", elems=64)
    data = result.report.to_json_dict()
    text = render_report_dict(data)
    assert "clean" in text
    assert str(data["nevents"]) in text
