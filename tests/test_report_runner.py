"""Tests for the table renderer and the experiment runner registry."""

import pytest

from repro.experiments.report import format_bytes, render_table
from repro.experiments.runner import EXPERIMENTS, main


class TestRenderTable:
    def test_columns_aligned(self):
        text = render_table(["a", "bb"], [["x", 1], ["yy", 22]])
        lines = text.splitlines()
        assert len({line.index("  ") for line in lines[:1]}) == 1
        assert lines[1].startswith("-")

    def test_title_prepended(self):
        text = render_table(["a"], [["x"]], title="T")
        assert text.splitlines()[0] == "T"

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456], [1234.5], [0.0]])
        assert "0.1235" in text
        assert "1.234e+03" in text or "1234" in text
        assert "\n0" in text

    def test_empty_rows_ok(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestFormatBytes:
    @pytest.mark.parametrize(
        ("nbytes", "expected"),
        [
            (512, "512B"),
            (16 * 1024, "16KB"),
            (64 * 1024 * 1024, "64MB"),
            (3 * 1024**3, "3GB"),
        ],
    )
    def test_round_values(self, nbytes, expected):
        assert format_bytes(nbytes) == expected

    def test_fractional(self):
        assert format_bytes(1536) == "1.5KB"


class TestRunnerRegistry:
    def test_every_paper_figure_registered(self):
        for name in ("fig01", "fig02", "fig03", "fig04", "fig05", "fig12",
                     "fig13", "fig14", "fig15", "fig16", "fig17",
                     "ablation_detour", "ablation_conflict",
                     "ablation_chunks"):
            assert name in EXPERIMENTS, name

    def test_every_extension_registered(self):
        for name in ("ext_algorithms", "ext_dgx2", "ext_hierarchical",
                     "ext_tree_search", "ext_workloads", "ext_sensitivity"):
            assert name in EXPERIMENTS, name

    def test_main_runs_a_cheap_experiment(self, capsys):
        assert main(["fig04"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_main_rejects_unknown(self, capsys):
        assert main(["fig99"]) == 2

    def test_registry_matches_export_jobs(self, tmp_path, monkeypatch):
        """Export writes one CSV per registry experiment, named after it."""
        from repro.experiments import registry
        from repro.experiments.export import export_all

        cheap = {n: EXPERIMENTS[n] for n in ("fig04", "ablation_chunks")}
        monkeypatch.setattr(registry, "EXPERIMENTS", cheap)
        written = export_all(tmp_path)
        assert [p.name for p in written] == ["fig04.csv",
                                             "ablation_chunks.csv"]
        assert all(p.read_text().count("\n") > 1 for p in written)
