"""Tests for the gradient-queue model (paper Fig. 9)."""

from repro.collectives.tree import tree_allreduce
from repro.core.gradient_queue import layer_ready_times
from repro.dnn.layers import LayerSpec, NetworkModel


def make_network(layer_bytes):
    layers = tuple(
        LayerSpec(name=f"L{i}", params=b // 4, fwd_flops=1e6)
        for i, b in enumerate(layer_bytes)
    )
    return NetworkModel(name="q", layers=layers)


class TestLayerReadyTimes:
    def test_uses_max_over_covering_chunks(self):
        net = make_network([800, 800])
        schedule = tree_allreduce(4, 1600.0, nchunks=4)
        available = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        ready = layer_ready_times(net, schedule, available)
        assert ready == [2.0, 4.0]

    def test_zero_byte_layer_always_ready(self):
        layers = (
            LayerSpec(name="a", params=100, fwd_flops=1.0),
            LayerSpec(name="none", params=0, fwd_flops=1.0),
            LayerSpec(name="b", params=100, fwd_flops=1.0),
        )
        net = NetworkModel(name="z", layers=layers)
        schedule = tree_allreduce(4, 800.0, nchunks=2)
        ready = layer_ready_times(net, schedule, {0: 5.0, 1: 9.0})
        assert ready[1] == 0.0
