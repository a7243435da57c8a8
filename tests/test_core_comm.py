"""Tests for the strategy-to-schedule glue (repro.core.comm)."""

import gc
import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.core.comm import build_strategy_schedule, simulate_strategy_comm
from repro.core.config import Bandwidth, CCubeConfig, Strategy
from repro.dnn.networks import NETWORKS
from repro.sim.dag import Dag
from repro.sim.engine import DagSimulator
from repro.sim.resources import Processor
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.embedding import embed_on_physical
from repro.topology.routing import Router


class TestBuildStrategySchedule:
    def test_ring_uses_config_rings(self, small_config):
        schedule = build_strategy_schedule(
            Strategy.RING, 8000.0, small_config
        )
        assert schedule.ntrees == small_config.nrings

    def test_tree_strategies_use_dgx1_pair(self, small_config):
        schedule = build_strategy_schedule(
            Strategy.CCUBE, 8000.0, small_config
        )
        roots = {
            op.dst for op in schedule.dag.ops
            if op.label.startswith("reduced")
        }
        assert roots == {3, 4}  # the DGX-1 pair's roots

    def test_dgx1_requires_eight_nodes(self):
        config = CCubeConfig(nnodes=16)
        with pytest.raises(ConfigError, match="nnodes == 8"):
            build_strategy_schedule(Strategy.BASELINE, 16000.0, config)

    def test_overlap_flag_follows_strategy(self, small_config):
        base = build_strategy_schedule(
            Strategy.COMPUTE_CHAINING, 8000.0, small_config
        )
        over = build_strategy_schedule(
            Strategy.OVERLAPPED_TREE, 8000.0, small_config
        )
        assert not base.overlapped
        assert over.overlapped


class TestSimulateStrategyComm:
    def test_all_strategies_simulate(self, small_config):
        for strategy in Strategy:
            outcome = simulate_strategy_comm(
                strategy, 64000.0, small_config
            )
            assert outcome.total_time > 0

    def test_overlapped_faster_on_both_paths(self, small_config):
        # Both bandwidth settings of the physical DGX-1 embedding.
        for config in (small_config, CCubeConfig()):
            base = simulate_strategy_comm(Strategy.BASELINE, 8e6, config)
            over = simulate_strategy_comm(Strategy.CCUBE, 8e6, config)
            assert over.total_time < base.total_time

    def test_fabric_reuses_ops_whose_lane_needs_no_folding(self, small_config):
        outcome = simulate_strategy_comm(Strategy.RING, 64000.0, small_config)
        logical = outcome.schedule.dag.ops
        assert len(outcome.sim.ops) == len(logical)
        # Rows are built on read, so reuse means the DES ran the
        # schedule's own DAG: no lane needed folding, nothing was copied.
        assert outcome.sim.ops is logical

    def test_physical_dag_is_validated_once(self, small_config, monkeypatch):
        validated = []
        validate = Dag.validate

        def counting_validate(dag):
            validated.append(dag)
            validate(dag)

        monkeypatch.setattr(Dag, "validate", counting_validate)
        outcome = simulate_strategy_comm(
            Strategy.CCUBE, 64000.0, small_config
        )
        physical = [d for d in validated if d.ops is outcome.sim.ops]
        assert len(physical) == 1

    def test_heaviest_fig13_point_peak_memory(self):
        # VGG-16 / CC / low bandwidth is the largest Fig. 13 DES point
        # (7,740 logical and 8,772 physical ops).  On CPython 3.11 its
        # peak is about 2.2 MB with a DES on typed columns, about 3.8 MB
        # with column-stored DAGs alone, about 6.2 MB with one slotted op
        # per op and a trace derived only when read, and about 8.7 MB when
        # every run also built one trace record per op and a key tuple
        # per transfer.
        config = CCubeConfig().scaled(Bandwidth.LOW)
        nbytes = float(NETWORKS["vgg16"]().total_bytes)
        simulate_strategy_comm(Strategy.CCUBE, nbytes, config)  # warm caches
        tracemalloc.start()
        try:
            outcome = simulate_strategy_comm(Strategy.CCUBE, nbytes, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outcome.sim.start) == 8772
        assert peak < 7.5e6


class TestColumnStore:
    def test_fig13_path_builds_no_op_rows(self, small_config, op_rows):
        for strategy in Strategy:  # ring on a fabric, trees on the DGX-1
            outcome = simulate_strategy_comm(strategy, 64000.0, small_config)
            assert outcome.total_time > 0
        assert op_rows == []

    def test_embedded_baseline_keeps_at_most_64_bytes_per_op(self, op_rows):
        # VGG-16 / B / low bandwidth: 7,742 logical and 8,774 physical
        # ops.  On CPython 3.11 the physical DAG keeps about 39 B/op in
        # columns; as one slotted Op per op it kept 205 B/op.
        config = CCubeConfig().scaled(Bandwidth.LOW)
        nbytes = float(NETWORKS["vgg16"]().total_bytes)
        schedule = build_strategy_schedule(Strategy.BASELINE, nbytes, config)
        topo = dgx1_topology(
            nvlink_bandwidth=1.0 / config.beta, nvlink_alpha=config.alpha
        )
        router = Router(topo, detour_preference=DETOUR_NODES)
        embed_on_physical(schedule.dag, topo, router)  # warm key caches
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            physical, report = embed_on_physical(schedule.dag, topo, router)
            del report
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op_rows == []
        assert len(physical) == 8774
        assert (after - before) / len(physical) <= 64

    def test_des_on_the_heaviest_point_keeps_no_per_op_objects(
        self, op_rows
    ):
        # VGG-16 / CC / low bandwidth: the largest Fig. 13 DES point.  On
        # CPython 3.11 run() peaks about 64 B/op above its inputs and the
        # result keeps about 20 B/op (start, finish and order columns);
        # with per-op lists, ints and floats they were 217 and 78 B/op.
        config = CCubeConfig().scaled(Bandwidth.LOW)
        nbytes = float(NETWORKS["vgg16"]().total_bytes)
        schedule = build_strategy_schedule(Strategy.CCUBE, nbytes, config)
        topo = dgx1_topology(
            nvlink_bandwidth=1.0 / config.beta, nvlink_alpha=config.alpha
        )
        router = Router(topo, detour_preference=DETOUR_NODES)
        physical, _ = embed_on_physical(schedule.dag, topo, router)
        resources = topo.to_resources()
        for key in physical.resources():
            resources.setdefault(key, Processor(name=str(key)))
        simulator = DagSimulator(resources)
        gc.collect()
        # Warm the interpreter's free lists, then keep the collector from
        # emptying them, so the figures count only the run's own memory.
        simulator.run(physical, validate=False)
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = simulator.run(physical, validate=False)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        n = len(physical)
        assert n == 8772
        assert op_rows == []
        assert (peak - before) / n <= 80
        assert (after - before) / n <= 24
        assert result.makespan > 0

