"""Tests for the training-iteration pipeline (chaining timeline)."""

import pytest

from repro.errors import ConfigError
from repro.core.config import CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline, simulate_iteration
from repro.dnn.compute_model import ComputeModel


@pytest.fixture
def pipeline(tiny_network, small_config):
    return IterationPipeline(
        network=tiny_network, batch=32, config=small_config
    )


class TestTimelineStructure:
    def test_forward_layers_sequential(self, pipeline):
        result = pipeline.run(Strategy.CCUBE)
        for i in range(1, len(result.fwd_start)):
            assert result.fwd_start[i] >= result.fwd_end[i - 1] - 1e-15

    def test_unchained_forward_starts_after_comm(self, pipeline):
        result = pipeline.run(Strategy.BASELINE)
        assert result.fwd_start[0] == pytest.approx(result.comm_total)

    def test_chained_forward_starts_at_first_layer_ready(self, pipeline):
        result = pipeline.run(Strategy.CCUBE)
        assert result.fwd_start[0] < result.comm_total

    def test_iteration_time_composition(self, pipeline):
        result = pipeline.run(Strategy.BASELINE)
        assert result.iteration_time == pytest.approx(
            result.fwd_end[-1] + result.backward_time
        )

    def test_ideal_time_is_compute_only(self, pipeline, tiny_network):
        result = pipeline.run(Strategy.BASELINE)
        compute = ComputeModel()
        expected = sum(
            compute.forward_time(layer, 32) + compute.backward_time(layer, 32)
            for layer in tiny_network.layers
        )
        assert result.ideal_time == pytest.approx(expected)

    def test_normalized_perf_below_one(self, pipeline):
        for strategy in Strategy:
            result = pipeline.run(strategy)
            assert 0 < result.normalized_performance <= 1.0

    def test_exposed_comm_nonnegative(self, pipeline):
        for strategy in Strategy:
            result = pipeline.run(strategy)
            assert result.exposed_comm_time >= -1e-12

    def test_chaining_efficiency_bounds(self, pipeline):
        result = pipeline.run(Strategy.CCUBE)
        # The hidden share of the AllReduce lies in [0, comm_total].
        hidden = result.comm_total - result.exposed_comm_time
        assert -1e-12 <= hidden <= result.comm_total + 1e-12


class TestStrategyOrdering:
    """The paper's qualitative results (Section V-B2)."""

    @pytest.fixture
    def results(self, pipeline):
        return {s: pipeline.run(s) for s in Strategy}

    def test_c1_comm_faster_than_baseline(self, results):
        assert (results[Strategy.OVERLAPPED_TREE].comm_total
                < results[Strategy.BASELINE].comm_total)

    def test_c1_overall_at_least_baseline(self, results):
        assert (results[Strategy.OVERLAPPED_TREE].iteration_time
                <= results[Strategy.BASELINE].iteration_time + 1e-15)

    def test_c2_at_least_baseline(self, results):
        assert (results[Strategy.COMPUTE_CHAINING].iteration_time
                <= results[Strategy.BASELINE].iteration_time + 1e-15)

    def test_ccube_best_tree_variant(self, results):
        cc = results[Strategy.CCUBE].iteration_time
        for s in (Strategy.BASELINE, Strategy.OVERLAPPED_TREE,
                  Strategy.COMPUTE_CHAINING):
            assert cc <= results[s].iteration_time + 1e-15

    def test_ccube_turnaround_fastest(self, results):
        assert (results[Strategy.CCUBE].turnaround
                <= results[Strategy.BASELINE].turnaround)


class TestCommReuse:
    def test_precomputed_comm_gives_same_result(self, pipeline):
        comm = pipeline.comm_outcome(Strategy.CCUBE)
        a = pipeline.run(Strategy.CCUBE, comm=comm)
        b = pipeline.run(Strategy.CCUBE)
        assert a.iteration_time == pytest.approx(b.iteration_time)

    def test_batch_scales_compute_not_comm(self, tiny_network, small_config):
        small = IterationPipeline(network=tiny_network, batch=16,
                                  config=small_config)
        large = IterationPipeline(network=tiny_network, batch=256,
                                  config=small_config)
        r_small = small.run(Strategy.BASELINE)
        r_large = large.run(Strategy.BASELINE)
        assert r_large.comm_total == pytest.approx(r_small.comm_total)
        assert r_large.ideal_time > r_small.ideal_time


class TestComputeScale:
    def test_scale_slows_compute(self, tiny_network, small_config):
        base = IterationPipeline(network=tiny_network, batch=32,
                                 config=small_config)
        slowed = IterationPipeline(network=tiny_network, batch=32,
                                   config=small_config, compute_scale=1.5)
        assert (slowed.run(Strategy.CCUBE).ideal_time
                == pytest.approx(base.run(Strategy.CCUBE).ideal_time * 1.5))

    def test_invalid_scale(self, tiny_network, small_config):
        with pytest.raises(ConfigError):
            IterationPipeline(network=tiny_network, batch=32,
                              config=small_config, compute_scale=0.0)

    def test_invalid_batch(self, tiny_network, small_config):
        with pytest.raises(ConfigError):
            IterationPipeline(network=tiny_network, batch=0,
                              config=small_config)


class TestConvenience:
    def test_simulate_iteration_matches_pipeline(self, tiny_network):
        direct = simulate_iteration(tiny_network, 32, Strategy.CCUBE)
        via_pipeline = IterationPipeline(
            network=tiny_network, batch=32, config=CCubeConfig()
        ).run(Strategy.CCUBE)
        assert direct.iteration_time == pytest.approx(
            via_pipeline.iteration_time
        )
