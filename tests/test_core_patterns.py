"""Tests for the comm/compute pattern analysis (paper Fig. 16)."""

import pytest

from repro.errors import ConfigError
from repro.core.patterns import PatternCase, analyze_pattern, synthetic_network


class TestSyntheticNetwork:
    def test_totals_preserved(self):
        net = synthetic_network(
            PatternCase.DECREASING_COMPUTE,
            total_params=1_000_000, total_flops=1e9,
        )
        assert net.total_params == pytest.approx(1_000_000, rel=0.01)
        total_flops = sum(layer.fwd_flops for layer in net.layers)
        assert total_flops == pytest.approx(1e9, rel=0.01)

    def test_case1_profile_shapes(self):
        net = synthetic_network(PatternCase.DECREASING_COMPUTE)
        flops = [layer.fwd_flops for layer in net.layers]
        params = [layer.params for layer in net.layers]
        assert flops == sorted(flops, reverse=True)
        assert params == sorted(params)

    def test_case2_compute_rises(self):
        net = synthetic_network(PatternCase.INCREASING_COMPUTE)
        flops = [layer.fwd_flops for layer in net.layers]
        assert flops == sorted(flops)

    def test_case3_comm_front_loaded(self):
        net = synthetic_network(PatternCase.FRONT_LOADED_COMM)
        params = [layer.params for layer in net.layers]
        assert params == sorted(params, reverse=True)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            synthetic_network(PatternCase.DECREASING_COMPUTE, nlayers=1)


class TestAnalyzePattern:
    @pytest.fixture
    def results(self):
        kwargs = dict(total_params=64_000_000, total_flops=6e8)
        return {
            case: analyze_pattern(case, **kwargs) for case in PatternCase
        }

    def test_case2_has_more_bubbles_than_case1(self, results):
        assert (results[PatternCase.INCREASING_COMPUTE].bubble_time
                > results[PatternCase.DECREASING_COMPUTE].bubble_time)

    def test_case3_pushes_turnaround_back(self, results):
        assert (results[PatternCase.FRONT_LOADED_COMM].fwd_start[0]
                > results[PatternCase.DECREASING_COMPUTE].fwd_start[0] * 2)

    def test_case1_most_efficient(self, results):
        best = results[PatternCase.DECREASING_COMPUTE].normalized_performance
        for case in (PatternCase.INCREASING_COMPUTE,
                     PatternCase.FRONT_LOADED_COMM):
            assert best >= results[case].normalized_performance
