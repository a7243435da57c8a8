"""Tests for DNN workload models: layers, networks, compute model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.dnn.compute_model import BACKWARD_FLOP_FACTOR, ComputeModel
from repro.dnn.layers import BYTES_PER_PARAM, LayerKind, LayerSpec, NetworkModel
from repro.dnn.networks import NETWORKS, resnet50, vgg16, zfnet
from repro.dnn.profiles import MLPERF_PROFILES


class TestLayerSpec:
    def test_param_bytes(self):
        layer = LayerSpec(name="x", params=100, fwd_flops=1.0)
        assert layer.param_bytes == 100 * BYTES_PER_PARAM

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LayerSpec(name="x", params=-1, fwd_flops=1.0)
        with pytest.raises(ConfigError):
            LayerSpec(name="x", params=1, fwd_flops=-1.0)


class TestNetworkModel:
    def test_byte_offsets_partition_buffer(self, tiny_network):
        cursor = 0
        for i in range(len(tiny_network)):
            lo, hi = tiny_network.byte_range(i)
            assert lo == cursor
            cursor = hi
        assert cursor == tiny_network.total_bytes

    def test_totals(self, tiny_network):
        assert tiny_network.total_params == sum(
            layer.params for layer in tiny_network.layers
        )

    def test_out_of_range_offset(self, tiny_network):
        with pytest.raises(ConfigError):
            tiny_network.byte_offset(99)

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigError):
            NetworkModel(name="empty", layers=())


class TestRealNetworks:
    def test_resnet50_param_count(self):
        # Published: ~25.6M parameters.
        assert resnet50().total_params == pytest.approx(25.6e6, rel=0.01)

    def test_vgg16_param_count(self):
        # Published: ~138.4M parameters.
        assert vgg16().total_params == pytest.approx(138.4e6, rel=0.01)

    def test_zfnet_param_count(self):
        # ~60-80M depending on exact pooling geometry; FC-dominated.
        assert 50e6 < zfnet().total_params < 90e6

    def test_resnet50_layer_count(self):
        # stem + 53 convs (incl. downsamples) + fc
        assert len(resnet50()) == 54

    def test_vgg16_layer_count(self):
        assert len(vgg16()) == 16

    def test_zfnet_layer_count(self):
        assert len(zfnet()) == 8

    def test_registry_builds_everything(self):
        for name, builder in NETWORKS.items():
            net = builder()
            assert net.name == name
            assert net.total_params > 0

    def test_resnet50_fig17_trends(self):
        """Paper Fig. 17: params grow, per-layer compute shrinks with depth."""
        net = resnet50()
        compute = ComputeModel()
        half = len(net) // 2
        early, late = net.layers[:half], net.layers[half:]
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean([l.params for l in late]) > 3 * mean(
            [l.params for l in early]
        )
        assert mean([compute.forward_time(l, 64) for l in early]) > mean(
            [compute.forward_time(l, 64) for l in late]
        )

    def test_vgg_fc_layers_dominate_params(self):
        net = vgg16()
        fc_params = sum(
            l.params for l in net.layers if l.kind is LayerKind.FC
        )
        assert fc_params > 0.8 * net.total_params


class TestComputeModel:
    def test_forward_scales_with_batch(self, tiny_network):
        model = ComputeModel()
        layer = tiny_network.layers[0]
        t1 = model.forward_time(layer, 1)
        t64 = model.forward_time(layer, 64)
        assert t64 > t1

    def test_backward_heavier_than_forward(self, tiny_network):
        model = ComputeModel(launch_overhead=0.0)
        layer = tiny_network.layers[0]
        assert model.backward_time(layer, 8) == pytest.approx(
            BACKWARD_FLOP_FACTOR * model.forward_time(layer, 8)
        )

    def test_launch_overhead_floor(self):
        model = ComputeModel(launch_overhead=1e-5)
        tiny = LayerSpec(name="t", params=1, fwd_flops=1.0)
        assert model.forward_time(tiny, 1) >= 1e-5

    def test_channel_efficiency_monotone(self):
        model = ComputeModel()
        narrow = LayerSpec(name="n", params=1, fwd_flops=1e9, channels=64)
        wide = LayerSpec(name="w", params=1, fwd_flops=1e9, channels=512)
        assert model.forward_time(narrow, 8) > model.forward_time(wide, 8)

    def test_fc_slower_per_flop_than_conv(self):
        model = ComputeModel(launch_overhead=0.0)
        conv = LayerSpec(name="c", params=1, fwd_flops=1e9,
                         kind=LayerKind.CONV, channels=512)
        fc = LayerSpec(name="f", params=1, fwd_flops=1e9, kind=LayerKind.FC)
        assert model.forward_time(fc, 8) > model.forward_time(conv, 8)

    @given(batch=st.integers(min_value=1, max_value=1024))
    def test_positive_times(self, batch):
        model = ComputeModel()
        layer = LayerSpec(name="x", params=10, fwd_flops=1e6)
        assert model.forward_time(layer, batch) > 0

    def test_invalid_batch(self):
        model = ComputeModel()
        layer = LayerSpec(name="x", params=10, fwd_flops=1e6)
        with pytest.raises(ConfigError):
            model.forward_time(layer, 0)

    def test_invalid_model_params(self):
        with pytest.raises(ConfigError):
            ComputeModel(peak_flops=0.0)
        with pytest.raises(ConfigError):
            ComputeModel(launch_overhead=-1.0)


class TestProfiles:
    def test_all_profiles_valid(self):
        for profile in MLPERF_PROFILES:
            assert profile.grad_bytes > 0
            assert profile.compute_time > 0

    def test_fraction_formula(self):
        profile = MLPERF_PROFILES[0]
        assert profile.allreduce_fraction(profile.compute_time) == 0.5

    def test_fraction_rejects_negative(self):
        with pytest.raises(ConfigError):
            MLPERF_PROFILES[0].allreduce_fraction(-1.0)
