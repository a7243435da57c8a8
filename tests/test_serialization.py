"""Round-trip tests for network serialization."""

import pytest

from repro.errors import ConfigError
from repro.dnn.networks import resnet50, vgg16, zfnet
from repro.dnn.serialize import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)


class TestNetworkSerialization:
    @pytest.mark.parametrize("builder", [zfnet, vgg16, resnet50])
    def test_round_trip_preserves_everything(self, builder):
        original = builder()
        rebuilt = network_from_dict(network_to_dict(original))
        assert rebuilt == original

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(resnet50(), path)
        assert load_network(path) == resnet50()

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            network_from_dict({"name": "x"})

    def test_unknown_kind_rejected(self):
        data = network_to_dict(zfnet())
        data["layers"][0]["kind"] = "quantum"
        with pytest.raises(ConfigError, match="kind"):
            network_from_dict(data)

    def test_bad_schema_rejected(self):
        data = network_to_dict(zfnet())
        data["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            network_from_dict(data)

    def test_empty_layers_rejected(self):
        with pytest.raises(ConfigError):
            network_from_dict({"name": "x", "layers": []})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_network(path)

    def test_custom_network_from_plain_dict(self):
        net = network_from_dict(
            {
                "name": "custom",
                "layers": [
                    {"name": "a", "params": 100, "fwd_flops": 1e6},
                    {"name": "b", "params": 200, "fwd_flops": 2e6,
                     "kind": "fc"},
                ],
            }
        )
        assert net.total_params == 300
