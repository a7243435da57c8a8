"""Bit-exactness pins for the profile-driven hot-path pass.

Every optimized path (vectorized chunk reduce, right-sized wire staging,
the ``read_view``/``take_view`` fast paths, the optimized
DES event loop, detached-tracer no-op emission) is pinned two ways:

- against its preserved serial/reference implementation, element for
  element and record for record;
- against *pre-optimization golden checksums* captured from the seed
  tree before any hot-path change landed, so a "provably equivalent"
  rewrite that actually changes results is caught even if the oracle
  was rewritten too.

These tests run under ``--sanitize`` and ``--fuzz-schedules`` like the
rest of the suite (except the timing assertions, which manage their own
instrumentation), so the fast paths also stay race-free.
"""

import zlib
from time import perf_counter

import numpy as np
import pytest

from repro.collectives.ring import DGX1_RING_ORDER
from repro.plan import (
    PlanInterpreter,
    build_halving_doubling_plan,
    build_ring_plan,
    compile_plan,
)
from repro.plan.builders import build_plan
from repro.plan.lowering import simulate_plan
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.cluster import _Wire
from repro.runtime.memory import (
    ChunkLayout,
    GradientBuffer,
    reduce_chunk_reference,
)
from repro.runtime.sync import SpinConfig
from repro.sanitizer import hooks
from repro.sim import engine
from repro.sim.dag import Dag
from repro.sim.engine import DagSimulator
from repro.sim.resources import Channel, Processor
from repro.sim.trace import TraceRecord
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees
from repro.topology.routing import Router

SPIN = SpinConfig(timeout=20.0)

# Golden CRC32 checksums captured on the seed tree (commit bd1ecbd),
# before any hot-path optimization, from inputs generated with
# ``np.random.default_rng(2026).normal(size=96)`` for 8 GPUs.  The
# optimized runtimes must keep reproducing them bit for bit.
GOLDEN_RING = 3543004418
GOLDEN_HD = 1461440751
# Captured from the hand-written ring and halving-doubling runtimes
# (which the interpreted plans replaced) on the same inputs with
# ``total_elems=96``: the ring over ``DGX1_RING_ORDER`` at 8 GPUs, and
# halving-doubling on the first 2 and the first 4 arrays.
GOLDEN_RING_DGX1_ORDER = 2859990090
GOLDEN_HD_2 = 600774856
GOLDEN_HD_4 = 1709373564
GOLDEN_TREE = 3509270229
GOLDEN_INTERP = 3509270229
GOLDEN_SIM_TIMINGS = 150713999
GOLDEN_SIM_OPS = 102
# Trace records sorted by (start, finish, op_id, resource): the engine's
# same-instant start order follows set iteration and was never stable
# across processes, so the golden pins the canonical ordering.
GOLDEN_SIM_TRACE_SORTED = 162567697


def golden_inputs():
    rng = np.random.default_rng(2026)
    return [rng.normal(size=96) for _ in range(8)]


def crc_arrays(arrays) -> int:
    c = 0
    for a in arrays:
        c = zlib.crc32(np.ascontiguousarray(a, dtype=np.float64).tobytes(), c)
    return c


def outputs_of(report):
    return report.outputs if hasattr(report, "outputs") else report


def interpret_golden(plan, inputs) -> int:
    interp = PlanInterpreter(plan, total_elems=96, spin=SPIN)
    return crc_arrays(interp.run(inputs).outputs)


class TestGoldenOutputs:
    def test_ring_matches_preoptimization_golden(self):
        plan = build_ring_plan(8, 768.0)
        assert interpret_golden(plan, golden_inputs()) == GOLDEN_RING

    def test_ring_dgx1_order_matches_golden(self):
        plan = build_ring_plan(8, 768.0, order=list(DGX1_RING_ORDER))
        assert (
            interpret_golden(plan, golden_inputs())
            == GOLDEN_RING_DGX1_ORDER
        )

    def test_hd_matches_preoptimization_golden(self):
        plan = build_halving_doubling_plan(8, 768.0)
        assert interpret_golden(plan, golden_inputs()) == GOLDEN_HD

    @pytest.mark.parametrize(
        "nnodes, golden", [(2, GOLDEN_HD_2), (4, GOLDEN_HD_4)]
    )
    def test_hd_small_matches_golden(self, nnodes, golden):
        plan = build_halving_doubling_plan(nnodes, 768.0)
        assert interpret_golden(plan, golden_inputs()[:nnodes]) == golden

    def test_tree_matches_preoptimization_golden(self):
        runtime = TreeAllReduceRuntime(
            dgx1_trees(),
            total_elems=96,
            chunks_per_tree=3,
            detour_map=DETOURED_EDGES,
            spin=SPIN,
        )
        out = runtime.run([a.copy() for a in golden_inputs()])
        assert crc_arrays(outputs_of(out)) == GOLDEN_TREE

    def test_interpreter_matches_preoptimization_golden(self):
        topo = dgx1_topology()
        plan = build_plan(
            "double_tree", 8, 4096.0, nchunks=3, overlapped=True,
            trees=dgx1_trees(),
        )
        legal, _ = compile_plan(
            plan, topo, router=Router(topo, detour_preference=DETOUR_NODES)
        )
        interp = PlanInterpreter(legal, total_elems=96, spin=SPIN)
        out = interp.run([a.copy() for a in golden_inputs()])
        assert crc_arrays(outputs_of(out)) == GOLDEN_INTERP

    def test_sim_matches_preoptimization_golden(self):
        plan = build_plan(
            "double_tree", 8, 4096.0, nchunks=3, overlapped=True,
            trees=dgx1_trees(),
        )
        res = simulate_plan(plan, topo=dgx1_topology()).sim
        assert len(res.start) == GOLDEN_SIM_OPS
        timings = crc_arrays(
            [np.array(res.start), np.array(res.finish),
             np.array([res.makespan])]
        )
        assert timings == GOLDEN_SIM_TIMINGS
        recs = sorted(
            res.trace,
            key=lambda r: (r.start, r.finish, r.op_id, str(r.resource)),
        )
        canonical = "|".join(
            f"{r.op_id}:{r.resource}:{r.start:.17g}:{r.finish:.17g}"
            for r in recs
        )
        assert zlib.crc32(canonical.encode()) == GOLDEN_SIM_TRACE_SORTED


class TestVectorizedReduce:
    def test_accumulate_matches_serial_reference(self, rng):
        for elems, chunks in ((96, 3), (257, 4), (1 << 12, 1)):
            layout = ChunkLayout.split(
                elems, ntrees=1, chunks_per_tree=chunks
            )
            fast = GradientBuffer(rng.normal(size=elems), layout)
            slow_data = fast.data.copy()
            values = rng.normal(size=elems) * 1e3
            for c in range(layout.nchunks):
                sl = layout.slice_of(c)
                fast.accumulate(c, values[sl])
                reduce_chunk_reference(slow_data[sl], values[sl])
            assert np.array_equal(fast.data, slow_data)

    def test_read_view_matches_read(self, rng):
        layout = ChunkLayout.split(96, ntrees=2, chunks_per_tree=3)
        buf = GradientBuffer(rng.normal(size=96), layout)
        for c in range(layout.nchunks):
            assert np.array_equal(buf.read_view(c), buf.read(c))
            assert np.shares_memory(buf.read_view(c), buf.data)

    def test_read_view_emits_like_read(self):
        layout = ChunkLayout.split(8, ntrees=1, chunks_per_tree=2)
        buf = GradientBuffer(np.zeros(8), layout)

        class Recorder:
            events = []

            def on_access(self, kind, label, chunk):
                self.events.append((kind, chunk))

            def on_sync(self, *a, **k):
                pass

        hooks.push(Recorder())
        try:
            buf.read(0)
            buf.read_view(1)
        finally:
            hooks.pop()
        assert Recorder.events == [("read", 0), ("read", 1)]


class _AccessRecorder:
    """Minimal tracer: records (kind, label, chunk) access events."""

    def __init__(self):
        self.events = []

    def on_access(self, kind, label, chunk):
        self.events.append((kind, label, chunk))

    def on_sync(self, *a, **k):
        pass


class TestPooledWire:
    def _wire(self, elems=12, chunks=3):
        layout = ChunkLayout.split(elems, ntrees=1, chunks_per_tree=chunks)
        return layout, _Wire(
            layout, capacity=chunks, spin=SPIN, name="bench-wire",
            chunks=range(chunks),
        )

    def test_take_view_matches_take(self, rng):
        from repro.runtime.cluster import payload_checksum

        layout, wire_a = self._wire()
        _, wire_b = self._wire()
        for c in range(layout.nchunks):
            payload = rng.normal(size=layout.chunk_elems(c))
            wire_a.deliver(c, payload, payload_checksum(payload))
            wire_b.deliver(c, payload, payload_checksum(payload))
        for c in range(layout.nchunks):
            via_take = wire_a.take(c)
            assert np.array_equal(wire_b.take_view(c), via_take)

    def test_take_view_still_detects_corruption(self, rng):
        from repro.errors import LinkFaultError
        from repro.runtime.cluster import payload_checksum

        layout, wire = self._wire()
        payload = rng.normal(size=layout.chunk_elems(0))
        wire.deliver(0, payload, payload_checksum(payload) ^ 0xDEAD)
        with pytest.raises(LinkFaultError, match="checksum mismatch"):
            wire.take_view(0)

    def test_take_view_detects_out_of_order_frames(self, rng):
        from repro.errors import LinkFaultError
        from repro.runtime.cluster import payload_checksum

        layout, wire = self._wire()
        for c in (0, 1):
            payload = rng.normal(size=layout.chunk_elems(c))
            wire.deliver(c, payload, payload_checksum(payload))
        wire._frames.reverse()  # the frame for chunk 1 overtakes chunk 0
        with pytest.raises(LinkFaultError, match="reordered or lost"):
            wire.take_view(1)

    def test_take_view_reads_aliased_memory_traced(self, rng):
        from repro.runtime.cluster import payload_checksum

        layout = ChunkLayout.split(12, ntrees=1, chunks_per_tree=3)
        owner = GradientBuffer(np.zeros(12), layout, owner=4)
        wire = _Wire(
            layout, capacity=3, spin=SPIN, name="alias-wire",
            chunks=range(3), buffer=owner.data, owner_buffer=owner,
        )
        payload = rng.normal(size=layout.chunk_elems(2))
        recorder = _AccessRecorder()
        hooks.push(recorder)
        try:
            wire.deliver(2, payload, payload_checksum(payload))
            view = wire.take_view(2)
        finally:
            hooks.pop()
        assert np.shares_memory(view, owner.data)
        assert np.array_equal(owner.chunk(2), payload)
        assert recorder.events == [("write", "gpu4", 2), ("read", "gpu4", 2)]

    def test_take_keeps_copy_semantics(self, rng):
        # Interpreter relays stash take() results across ops: mutating
        # the wire after take must not alter the returned array.
        from repro.runtime.cluster import payload_checksum

        layout, wire = self._wire()
        first = rng.normal(size=layout.chunk_elems(0))
        wire.deliver(0, first, payload_checksum(first))
        got = wire.take(0)
        wire.deliver(1, -first, payload_checksum(-first))
        assert np.array_equal(got, first)

    def test_staging_covers_only_carried_chunks(self, rng):
        from repro.errors import RuntimeClusterError
        from repro.runtime.cluster import payload_checksum

        layout = ChunkLayout.split(20, ntrees=2, chunks_per_tree=2)
        wire = _Wire(
            layout, capacity=2, spin=SPIN, name="half-wire", chunks=(3, 2)
        )
        assert wire._data.nbytes == 8 * sum(
            layout.chunk_elems(c) for c in (2, 3)
        )
        payload = rng.normal(size=layout.chunk_elems(3))
        wire.deliver(3, payload, payload_checksum(payload))
        assert np.array_equal(wire.take_view(3), payload)
        with pytest.raises(RuntimeClusterError, match="does not carry"):
            wire.deliver(0, payload, payload_checksum(payload))


class TestOptimizedEngine:
    def _random_dag(self, rng, nops=120, nchans=5, nprocs=0):
        """Random DAG on ``nchans`` channels and ``nprocs`` processors
        (speedups 1, 0.7, ...); with processors, every fourth channel op
        also carries an explicit duration."""
        dag = Dag()
        for i in range(nops):
            ndeps = int(rng.integers(0, min(i, 3) + 1))
            deps = sorted(
                int(d) for d in rng.choice(i, size=ndeps, replace=False)
            ) if i and ndeps else []
            r = int(rng.integers(nchans + nprocs))
            timed = r >= nchans or (nprocs and i % 4 == 0)
            dag.add(
                ("chan", r) if r < nchans else ("gpu", r - nchans),
                nbytes=float(rng.integers(1, 512)),
                duration=float(rng.integers(1, 64)) * 1e-7 if timed else None,
                deps=deps,
                label=f"op{i}",
            )
        resources = {
            ("chan", c): Channel(alpha=1e-6, beta=1e-9)
            for c in range(nchans)
        }
        for p in range(nprocs):
            resources[("gpu", p)] = Processor(name=f"gpu{p}")
        return dag, resources

    def test_run_matches_run_reference(self, rng):
        for nprocs in (0, 0, 0, 2, 2):
            dag, resources = self._random_dag(rng, nprocs=nprocs)
            simulator = DagSimulator(resources)
            ref = simulator.run_reference(dag)
            opt = simulator.run(dag)
            # ``run`` returns typed arrays, the reference lists.
            assert list(opt.start) == ref.start
            assert list(opt.finish) == ref.finish
            assert opt.makespan == ref.makespan
            assert list(opt.order) == ref.order
            assert [
                (r.op_id, r.resource, r.start, r.finish, r.label)
                for r in opt.trace
            ] == [
                (r.op_id, r.resource, r.start, r.finish, r.label)
                for r in ref.trace
            ]

    def test_trace_is_built_on_first_read_and_cached(self, rng, monkeypatch):
        built = []

        def counting_record(**fields):
            record = TraceRecord(**fields)
            built.append(record)
            return record

        monkeypatch.setattr(engine, "TraceRecord", counting_record)
        dag, resources = self._random_dag(rng)
        result = DagSimulator(resources).run(dag)
        assert built == []
        trace = result.trace
        assert len(built) == len(dag.ops)
        assert result.trace is trace
        assert len(built) == len(dag.ops)
        assert sorted(r.op_id for r in trace) == list(range(len(dag.ops)))
        assert [r.start for r in trace] == sorted(r.start for r in trace)


class TestDetachedTracerCost:
    def test_hooks_flag_tracks_both_stacks(self):
        assert isinstance(hooks.ANY, bool)
        before = hooks.ANY

        class Sink:
            def on_access(self, *a):
                pass

        hooks.push(Sink())
        assert hooks.ANY
        hooks.pop()
        hooks.push_scheduler(object())
        assert hooks.ANY
        hooks.pop_scheduler()
        assert hooks.ANY == before

    @pytest.mark.no_sanitize
    @pytest.mark.no_fuzz
    def test_detached_tracer_overhead_below_bound(self):
        # Satellite bound: a detached tracer costs one attribute check,
        # so instrumented accumulate stays within 1.05x of a hand-timed
        # raw loop.  Best-of-N timing damps scheduler noise.
        elems = 1 << 14
        layout = ChunkLayout.split(elems, ntrees=1, chunks_per_tree=1)
        buf = GradientBuffer(np.zeros(elems), layout)
        values = np.random.default_rng(0).normal(size=elems)
        data, sl = buf.data, layout.slice_of(0)
        reps = 50

        def traced():
            for _ in range(reps):
                buf.accumulate(0, values)

        def raw():
            for _ in range(reps):
                dst = data[sl]
                dst += values

        def best_of(fn, n=9):
            best = float("inf")
            for _ in range(n):
                t0 = perf_counter()
                fn()
                best = min(best, perf_counter() - t0)
            return best

        traced()
        raw()
        # A loaded CI machine can smear any single measurement; take the
        # best ratio over a few attempts before declaring a regression.
        ratio = min(
            best_of(traced) / best_of(raw) for _ in range(3)
        )
        assert ratio <= 1.05, f"detached tracer overhead {ratio:.3f}x"
