"""Tests for the extended workload library (beyond the paper's three)."""

import pytest

from repro.core.config import Strategy
from repro.core.pipeline import simulate_iteration
from repro.dnn.layers import LayerKind
from repro.dnn.networks import NETWORKS, alexnet, bert_base, resnet152


class TestResnet152:
    def test_param_count(self):
        # Published: ~60.2M parameters.
        assert resnet152().total_params == pytest.approx(60.2e6, rel=0.01)

    def test_deeper_than_resnet50(self):
        from repro.dnn.networks import resnet50

        assert len(resnet152()) > 2.5 * len(resnet50())

    def test_same_stage_profile_trend(self):
        net = resnet152()
        half = len(net) // 2
        early = sum(l.params for l in net.layers[:half]) / half
        late = sum(l.params for l in net.layers[half:]) / (len(net) - half)
        assert late > early


class TestAlexnet:
    def test_param_count(self):
        # Published: ~61M parameters.
        assert alexnet().total_params == pytest.approx(61e6, rel=0.05)

    def test_fc_dominated(self):
        net = alexnet()
        fc = sum(l.params for l in net.layers if l.kind is LayerKind.FC)
        assert fc > 0.9 * net.total_params


class TestBertBase:
    def test_param_count(self):
        # Published: ~110M parameters.
        assert bert_base().total_params == pytest.approx(110e6, rel=0.02)

    def test_uniform_blocks(self):
        net = bert_base()
        blocks = [l for l in net.layers if l.name.startswith("encoder")]
        assert len(blocks) == 12
        assert len({l.params for l in blocks}) == 1


class TestExtendedRegistry:
    def test_registry_has_six_networks(self):
        assert len(NETWORKS) == 6

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_every_network_runs_through_the_pipeline(self, name):
        network = NETWORKS[name]()
        result = simulate_iteration(network, 16, Strategy.CCUBE)
        assert 0 < result.normalized_performance <= 1.0
        assert result.turnaround > 0

    def test_ccube_helps_every_workload(self):
        for name, builder in NETWORKS.items():
            network = builder()
            baseline = simulate_iteration(network, 16, Strategy.BASELINE)
            ccube = simulate_iteration(network, 16, Strategy.CCUBE)
            assert (ccube.iteration_time
                    <= baseline.iteration_time + 1e-12), name
