"""Tests for chunk layouts and gradient buffers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.runtime.memory import ChunkLayout, GradientBuffer


class TestChunkLayoutSplit:
    def test_basic_split(self):
        layout = ChunkLayout.split(100, ntrees=2, chunks_per_tree=5)
        assert layout.nchunks == 10
        assert layout.ntrees == 2
        assert layout.bounds[0] == (0, 10)
        assert layout.bounds[-1] == (90, 100)

    def test_tree_halves_contiguous(self):
        layout = ChunkLayout.split(100, ntrees=2, chunks_per_tree=2)
        assert layout.tree_chunks == ((0, 1), (2, 3))
        assert layout.bounds[1][1] == 50  # tree 0 ends at the midpoint
        assert layout.bounds[2][0] == 50

    @given(
        total=st.integers(min_value=1, max_value=100_000),
        ntrees=st.integers(min_value=1, max_value=3),
        k=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, total, ntrees, k):
        if total < ntrees * k:
            return
        layout = ChunkLayout.split(total, ntrees=ntrees, chunks_per_tree=k)
        # Chunks tile [0, total) exactly, in order, without gaps.
        cursor = 0
        for chunk in range(layout.nchunks):
            start, stop = layout.bounds[chunk]
            assert start == cursor
            assert stop > start
            cursor = stop
        assert cursor == total

    def test_too_small_buffer_rejected(self):
        with pytest.raises(ConfigError):
            ChunkLayout.split(3, ntrees=2, chunks_per_tree=2)

    def test_tree_of(self):
        layout = ChunkLayout.split(40, ntrees=2, chunks_per_tree=2)
        assert layout.tree_of(0) == 0
        assert layout.tree_of(3) == 1

    def test_tree_of_unknown_chunk(self):
        layout = ChunkLayout.split(40, ntrees=1, chunks_per_tree=2)
        with pytest.raises(ConfigError):
            layout.tree_of(5)

    def test_chunk_elems(self):
        layout = ChunkLayout.split(10, ntrees=1, chunks_per_tree=3)
        assert sum(layout.chunk_elems(c) for c in range(3)) == 10

    def test_slice_of_matches_bounds(self):
        layout = ChunkLayout.split(10, ntrees=1, chunks_per_tree=2)
        assert layout.slice_of(1) == slice(5, 10)


class TestGradientBuffer:
    def test_copy_on_construction(self):
        layout = ChunkLayout.split(4, ntrees=1, chunks_per_tree=1)
        source = np.ones(4)
        buf = GradientBuffer(source, layout)
        source[:] = 99.0
        assert np.all(buf.data == 1.0)

    def test_accumulate(self):
        layout = ChunkLayout.split(4, ntrees=1, chunks_per_tree=2)
        buf = GradientBuffer(np.ones(4), layout)
        buf.accumulate(0, np.array([2.0, 3.0]))
        assert list(buf.data) == [3.0, 4.0, 1.0, 1.0]

    def test_overwrite(self):
        layout = ChunkLayout.split(4, ntrees=1, chunks_per_tree=2)
        buf = GradientBuffer(np.ones(4), layout)
        buf.overwrite(1, np.array([7.0, 8.0]))
        assert list(buf.data) == [1.0, 1.0, 7.0, 8.0]

    def test_chunk_view_is_writable(self):
        layout = ChunkLayout.split(6, ntrees=1, chunks_per_tree=3)
        buf = GradientBuffer(np.zeros(6), layout)
        buf.chunk(2)[:] = 5.0
        assert list(buf.data) == [0, 0, 0, 0, 5.0, 5.0]

    def test_snapshot_is_independent(self):
        layout = ChunkLayout.split(4, ntrees=1, chunks_per_tree=1)
        buf = GradientBuffer(np.zeros(4), layout)
        snap = buf.snapshot()
        buf.data[:] = 1.0
        assert np.all(snap == 0.0)

    def test_size_mismatch_rejected(self):
        layout = ChunkLayout.split(4, ntrees=1, chunks_per_tree=1)
        with pytest.raises(ConfigError):
            GradientBuffer(np.zeros(5), layout)

    def test_2d_rejected(self):
        layout = ChunkLayout.split(4, ntrees=1, chunks_per_tree=1)
        with pytest.raises(ConfigError):
            GradientBuffer(np.zeros((2, 2)), layout)


class TestRightSizedLinks:
    """Link memory matches the traffic each link carries: the tree
    runtime's wires alias gradient buffers, and any program's wires
    stage only where a schedule forces it."""

    ELEMS = 100_000

    def _runtime(self):
        from repro.runtime.allreduce import TreeAllReduceRuntime
        from repro.runtime.sync import SpinConfig
        from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

        return TreeAllReduceRuntime(
            dgx1_trees(),
            total_elems=self.ELEMS,
            chunks_per_tree=4,
            detour_map=DETOURED_EDGES,
            spin=SpinConfig(timeout=20.0),
        )

    def _span_bytes(self, layout, chunks):
        return 8 * sum(layout.chunk_elems(c) for c in set(chunks))

    def _wires(self, runtime):
        """Per-GPU buffers and the wires, keyed by wire key, built
        exactly as ``run`` builds them."""
        buffers = [
            GradientBuffer(np.zeros(self.ELEMS), runtime.layout, owner=g)
            for g in range(runtime.nnodes)
        ]
        wires, _ = runtime._build_wires(runtime.spin, buffers)
        keys = [key for key, _ in runtime.program.wires]
        return buffers, dict(zip(keys, wires))

    def test_tree_wires_alias_gradient_buffers(self):
        runtime = self._runtime()
        buffers, wires = self._wires(runtime)
        assert any(key[4] is not None for key in wires), (
            "the DGX-1 trees must exercise a detour"
        )
        assert len(runtime.program.aliased) == len(wires)
        for (src, _dst, _tree, _phase, flow), wire in wires.items():
            # Zero-copy on every hop: the receiver, and a relay on the
            # way, read the flow source's chunk in place — the child's
            # partial going up, the parent's final chunk going down.
            owner = flow[0] if flow is not None else src
            assert wire._data is buffers[owner].data

    def test_run_peak_memory_is_inputs_only(self, rng):
        import tracemalloc

        runtime = self._runtime()
        input_copies = 8 * self.ELEMS * runtime.nnodes
        inputs = [rng.normal(size=self.ELEMS) for _ in range(runtime.nnodes)]
        tracemalloc.start()
        try:
            report = runtime.run(inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(report.outputs[0], report.outputs[-1])
        assert peak <= 1.1 * input_copies

    def test_unrecovered_corruption_never_lands_in_child_buffer(self):
        from repro.errors import AbortedError, LinkFaultError
        from repro.runtime.faults import FaultPlan, LinkFault
        from repro.topology.dgx1_trees import DETOURED_EDGES

        runtime = self._runtime()
        tree = runtime.trees[0]
        child, parent = next(
            edge for edge in tree.up_edges()
            if edge not in DETOURED_EDGES and tree.children[edge[0]]
        )
        runtime.fault_plan = FaultPlan(
            link_faults=(
                LinkFault(f"up t0 {child}->{parent}", corrupt_prob=0.5),
            ),
            recover=False,
        )
        built = {}
        build = runtime._build_wires
        name = f"plan reduce t0 {child}->{parent}"

        def build_with_forced_corruption(spin, buffers):
            wires, injectors = build(spin, buffers)
            (w,) = [i for i, wire in enumerate(wires) if wire.name == name]
            assert wires[w]._data is buffers[child].data
            injectors[w].next_fate = lambda: "corrupt"
            built["buffers"] = buffers
            return wires, injectors

        runtime._build_wires = build_with_forced_corruption
        inputs = [
            np.full(self.ELEMS, float(g + 1)) for g in range(runtime.nnodes)
        ]
        with pytest.raises(AbortedError) as info:
            runtime.run(inputs)
        cause = info.value.__cause__
        assert isinstance(cause, LinkFaultError)
        assert "checksum mismatch" in str(cause)
        assert name in str(cause)

        def subtree(node):
            return [node] + [
                g for kid in tree.children[node] for g in subtree(kid)
            ]

        # The child's first chunk still holds exactly its partial sum:
        # the damaged bytes went to the link's fault slot, not here.
        partial = float(sum(g + 1 for g in subtree(child)))
        first = runtime.layout.tree_chunks[0][0]
        chunk = built["buffers"][child].chunk(first)
        assert np.array_equal(chunk, np.full(chunk.shape, partial))

    def test_interpreter_wires_stage_only_their_sends(self):
        from repro.plan import PlanInterpreter, compile_plan
        from repro.plan.builders import build_plan
        from repro.plan.ir import SEND
        from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
        from repro.topology.dgx1_trees import dgx1_trees
        from repro.topology.routing import Router

        topo = dgx1_topology()
        plan = build_plan(
            "double_tree", 8, 4096.0, nchunks=4, overlapped=True,
            trees=dgx1_trees(),
        )
        legal, _ = compile_plan(
            plan, topo, router=Router(topo, detour_preference=DETOUR_NODES)
        )
        interp = PlanInterpreter(legal, total_elems=960)
        buffers = [
            GradientBuffer(np.zeros(960), interp.layout, owner=g)
            for g in range(legal.nnodes)
        ]
        wire_list, _ = interp._build_wires(interp.spin, buffers)
        wires = dict(zip((key for key, _ in interp.program.wires), wire_list))
        carried: dict[tuple, list[int]] = {}
        for op in legal.ops:
            if op.kind == SEND:
                src, dst, tree, phase, flow = op.wire_key()
                carried.setdefault(
                    (src, dst, tree, phase.value, flow), []
                ).extend(op.chunks_carried())
        assert set(wires) == set(carried)
        assert any(key[4] is not None for key in wires), "needs a detour"
        for key, wire in wires.items():
            # Every SEND passes the write-after-read proof, so no wire
            # stages: each aliases the sending rank's buffer, and a
            # detour's relay legs alias the flow source's.
            src, _dst, _tree, _phase, flow = key
            owner = flow[0] if flow is not None else src
            assert wire._data is buffers[owner].data
            assert set(wire._slots) == set(carried[key])
