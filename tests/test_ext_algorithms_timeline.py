"""Tests for the algorithm-comparison experiment and timeline renderer."""

import pytest

from repro.core.config import CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline
from repro.core.timeline import render_iteration_timeline
from repro.experiments import ext_algorithms


class TestExtAlgorithms:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_algorithms.run(sizes=(64 * 1024, 64 * 1024 * 1024))

    def test_four_algorithms_per_size(self, rows):
        assert len(rows) == 8

    def test_only_trees_are_in_order(self, rows):
        for row in rows:
            expect = "tree" in row.algorithm
            assert row.in_order == expect, row.algorithm

    def test_halving_doubling_beats_ring_on_latency(self, rows):
        small = {r.algorithm: r for r in rows if r.nbytes < 1e6}
        assert (small["halving-doubling"].time_ms < small["ring"].time_ms)

    def test_overlapped_tree_best_turnaround_at_large_size(self, rows):
        large = {r.algorithm: r for r in rows if r.nbytes > 1e6}
        best = min(large.values(), key=lambda r: r.turnaround_ms)
        assert best.algorithm == "overlapped tree (C1)"

    def test_format_table(self, rows):
        text = ext_algorithms.format_table(rows)
        assert "halving-doubling" in text
        assert "chainable" in text


class TestTimelineRenderer:
    @pytest.fixture
    def pipeline(self, tiny_network, small_config):
        return IterationPipeline(
            network=tiny_network, batch=32, config=small_config
        )

    def test_renders_one_row_per_layer(self, pipeline, tiny_network):
        result = pipeline.run(Strategy.CCUBE)
        text = render_iteration_timeline(result)
        assert text.count("█") > 0
        assert text.count("|") == 2 * len(tiny_network)

    def test_includes_chunk_row_with_comm(self, pipeline):
        comm = pipeline.comm_outcome(Strategy.CCUBE)
        result = pipeline.run(Strategy.CCUBE, comm=comm)
        text = render_iteration_timeline(result, comm)
        assert "chunks" in text
        assert "#" in text

    def test_layer_names_used(self, pipeline, tiny_network):
        result = pipeline.run(Strategy.CCUBE)
        names = [layer.name for layer in tiny_network.layers]
        text = render_iteration_timeline(result, layer_names=names)
        assert names[0] in text

    def test_elides_long_networks(self, small_config):
        from repro.dnn.networks import resnet50

        pipeline = IterationPipeline(
            network=resnet50(), batch=16, config=small_config
        )
        result = pipeline.run(Strategy.CCUBE)
        text = render_iteration_timeline(result)
        assert "more layers" in text

    def test_header_mentions_strategy(self, pipeline):
        result = pipeline.run(Strategy.BASELINE)
        assert "strategy B" in render_iteration_timeline(result)
