"""Tests for the extended-workload study."""

import pytest

from repro.experiments import ext_workloads


class TestExtWorkloads:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_workloads.run()

    def test_all_six_networks(self, rows):
        assert len(rows) == 6

    def test_ccube_best_tree_strategy_everywhere(self, rows):
        for row in rows:
            assert row.normalized["CC"] >= row.normalized["B"] - 1e-12
            assert row.normalized["CC"] >= row.normalized["C1"] - 1e-12

    def test_fc_heavy_networks_gain_most(self, rows):
        by_name = {r.network: r for r in rows}
        # AlexNet/ZFNet (FC-dominated, comm-bound) gain more than the
        # compute-rich ResNets.
        assert (by_name["alexnet"].ccube_speedup_over_baseline
                > by_name["resnet50"].ccube_speedup_over_baseline)
        assert (by_name["zfnet"].ccube_speedup_over_baseline
                > by_name["resnet152"].ccube_speedup_over_baseline)

    def test_uniform_transformer_chains_less_than_cnn(self, rows):
        """BERT's uniform profile is between Case 1 and Case 2: chaining
        hides less than on the Case-1 CNNs of similar size."""
        by_name = {r.network: r for r in rows}
        assert (by_name["bert_base"].normalized["CC"]
                < by_name["resnet152"].normalized["CC"])

    def test_format_table(self, rows):
        assert "workload library" in ext_workloads.format_table(rows)
