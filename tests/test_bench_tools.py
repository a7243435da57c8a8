"""The benchmark-reading tools: ``tools/bench_pairs.py``'s verdicts and
``tools/chain_overlap.py``'s ``queue.overlap_frac``, on fixed numbers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
import chain_overlap  # noqa: E402

BASE_RSS = [42.51, 42.49, 42.56, 42.50, 42.53, 42.48, 42.52, 42.55,
            42.47, 42.54]


class TestPairVerdict:
    def test_lower_in_every_pair_beyond_the_iqr_is_claimable(self):
        new = [b - 0.3 for b in BASE_RSS]
        assert bench_pairs.pair_verdict(BASE_RSS, new, "lower", 0.05) \
            == "claimable gain"

    def test_eight_of_ten_pairs_is_not_claimable(self):
        new = [b - 0.3 for b in BASE_RSS[:8]] + [b + 0.01
                                                 for b in BASE_RSS[8:]]
        assert bench_pairs.pair_verdict(BASE_RSS, new, "lower", 0.05) \
            == "within bound"

    def test_a_gap_inside_the_base_iqr_is_not_claimable(self):
        new = [b - 0.01 for b in BASE_RSS]
        assert bench_pairs.pair_verdict(BASE_RSS, new, "lower", 0.05) \
            == "within bound"

    def test_higher_is_better_for_a_higher_metric(self):
        new = [b + 0.3 for b in BASE_RSS]
        assert bench_pairs.pair_verdict(BASE_RSS, new, "higher", 0.05) \
            == "claimable gain"
        assert bench_pairs.pair_verdict(BASE_RSS, new, "lower", 0.05) \
            == "within bound"

    def test_median_worse_than_the_bound_is_a_regression(self):
        base = [0.180, 0.178, 0.185, 0.182, 0.179]
        new = [b * 1.2 for b in base]
        assert bench_pairs.pair_verdict(base, new, "lower", 0.1) \
            == "regression"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        base = [0.10, 0.20, 0.15, 0.12, 0.18]
        new = [0.19, 0.11, 0.16, 0.13, 0.17]
        assert bench_pairs.pair_verdict(base, new, "lower", 0.1) \
            == "unresolved"

    def test_one_more_failed_op_is_a_regression(self):
        assert bench_pairs.pair_verdict([0.0] * 4, [0.0, 0.0, 0.0, 0.01],
                                        "lower", 0.0) == "regression"
        assert bench_pairs.pair_verdict([0.0] * 4, [0.0] * 4,
                                        "lower", 0.0) == "within bound"


def _result(rss: float, setup: float) -> dict:
    headline = {"setup_s": setup, "peak_rss_mb": rss, "failed_frac": 0.0}
    return {"workloads": {"w": {"summary": {"headline": headline}}}}


def test_summarize_reads_every_gated_metric_per_pair(tmp_path):
    for i, rss in enumerate(BASE_RSS):
        for side, value in (("base", rss), ("new", rss - 0.3)):
            run = tmp_path / f"{side}-{i:02d}"
            run.mkdir()
            (run / "result.json").write_text(json.dumps(_result(value, 0.2)))
    # A side's run without its partner is not a pair.
    (tmp_path / "base-10").mkdir()
    (tmp_path / "base-10" / "result.json").write_text(
        json.dumps(_result(50.0, 0.2)))
    rows = bench_pairs.summarize(bench_pairs.read_runs(tmp_path),
                                 bench_pairs.load_metrics())
    by_metric = {row["metric"]: row for row in rows}
    assert set(by_metric) == {"setup_s", "peak_rss_mb", "failed_frac"}
    assert by_metric["peak_rss_mb"]["base"] == BASE_RSS
    assert by_metric["peak_rss_mb"]["wins"] == 10
    assert by_metric["peak_rss_mb"]["verdict"] == "claimable gain"
    assert by_metric["setup_s"]["wins"] == 0
    assert by_metric["setup_s"]["verdict"] == "within bound"


def test_out_dir_under_the_frozen_harness_is_refused(tmp_path):
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--out",
                          str(tmp_path / "benchmarks" / "e2e" / "x")])
    assert not (tmp_path / "benchmarks" / "e2e" / "x").exists()


def _row(last: float, forward: float) -> dict:
    return {"last_arrival_ms": last, "forward_start_ms": forward}


class TestChainOverlap:
    def test_counts_forward_starts_before_the_last_arrival(self):
        table = [_row(2.0, 1.0), _row(5.0, 4.0), _row(9.0, 9.5),
                 _row(8.0, 12.0)]
        # The table's last arrival is 9.0: two forward starts precede it.
        assert chain_overlap.overlap_frac(table) == 0.5

    def test_serial_chain_reads_zero(self):
        table = [_row(3.0, 10.0 + i) for i in range(5)]
        assert chain_overlap.overlap_frac(table) == 0.0

    def test_cli_prints_each_traced_workload(self, tmp_path, capsys):
        result = {"workloads": {
            "train_cc_resnet50": {"traced": {"chain_table": [
                _row(2.0, 1.0), _row(4.0, 5.0)]}},
            "sim_fig13": {"traced": {"chain_table": None}},
            "train_b_vgg16": {},
        }}
        (tmp_path / "result.json").write_text(json.dumps(result))
        assert chain_overlap.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "train_cc_resnet50 queue.overlap_frac 0.500 (2 layers)\n")

    def test_untraced_result_is_an_error(self, tmp_path):
        (tmp_path / "result.json").write_text(
            json.dumps({"workloads": {"sim_fig13": {}}}))
        with pytest.raises(SystemExit):
            chain_overlap.main([str(tmp_path / "result.json")])
