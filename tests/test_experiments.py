"""Shape tests for every paper-figure experiment.

These assert the *reproduction claims*: each experiment runs, and its
results land in the qualitative bands the paper reports (who wins, by
roughly what factor, where crossovers fall).
"""

import math
from dataclasses import replace

import pytest

from repro.core.config import Bandwidth, CCubeConfig, Strategy
from repro.experiments import (
    ablations,
    ext_faults,
    ext_plans,
    ext_recovery,
    fig01_allreduce_ratio,
    fig03_invocation,
    fig04_model_ratio,
    fig12_comm_perf,
    fig13_overall,
    fig14_scaleout,
    fig15_detour,
    fig16_patterns,
    fig17_resnet_layers,
)
from repro.experiments.registry import EXPERIMENTS

_MB = 1024 * 1024


class TestFig01:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig01_allreduce_ratio.run()

    def test_all_workloads_reported(self, rows):
        assert len(rows) == 6

    def test_fraction_band_matches_paper(self, rows):
        """Paper: up to ~60% (SSD), around ~10% minimum (NCF)."""
        fractions = {r.workload: r.allreduce_fraction for r in rows}
        assert 0.5 < fractions["single_stage_detector"] < 0.65
        assert 0.08 < fractions["neural_collaborative_filtering"] < 0.15

    def test_ssd_is_worst_case(self, rows):
        worst = max(rows, key=lambda r: r.allreduce_fraction)
        assert worst.workload == "single_stage_detector"

    def test_format_table(self, rows):
        text = fig01_allreduce_ratio.format_table(rows)
        assert "allreduce fraction" in text


class TestFig03:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig03_invocation.run()

    def test_layer_wise_about_2x(self, rows):
        by_name = {r.scheme: r for r in rows}
        assert 1.5 < by_name["layer-wise"].slowdown_vs_one_shot < 3.0

    def test_slicing_over_4x(self, rows):
        by_name = {r.scheme: r for r in rows}
        assert by_name["slicing"].slowdown_vs_one_shot > 4.0

    def test_one_shot_best_bandwidth(self, rows):
        best = max(rows, key=lambda r: r.normalized_bandwidth)
        assert best.scheme == "one-shot"


class TestFig04:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig04_model_ratio.run()

    def test_tree_wins_small_messages(self, rows):
        small = rows[0]  # 16 KB row
        assert all(r > 1.0 for r in small.ratios)

    def test_ring_wins_large_messages_small_p(self, rows):
        large = rows[-1]  # 256 MB row; first column is P=8
        assert large.ratios[0] < 1.0

    def test_ratio_grows_with_p(self, rows):
        for row in rows:
            assert row.ratios[-1] > row.ratios[0]


class TestFig12:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig12_comm_perf.run(sizes=(16 * _MB, 64 * _MB, 256 * _MB))

    def test_speedup_band(self, rows):
        """Paper: 75-80% comm improvement at 64 MB and above."""
        for row in rows:
            if row.nbytes >= 64 * _MB:
                assert 1.6 < row.simulated_speedup < 2.0

    def test_model_matches_simulation(self, rows):
        """Paper Fig. 12(b): model and measurement agree closely."""
        for row in rows:
            assert row.simulated_speedup == pytest.approx(
                row.modeled_speedup, rel=0.10
            )

    def test_speedup_grows_with_size(self, rows):
        speedups = [r.simulated_speedup for r in rows]
        assert speedups == sorted(speedups)


class TestFig13:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig13_overall.run(batches=(16, 256))

    def test_all_points_present(self, rows):
        assert len(rows) == 3 * 2 * 2  # nets x batches x bandwidths

    def test_ccube_always_best_tree_variant(self, rows):
        for row in rows:
            assert row.normalized["CC"] >= row.normalized["B"] - 1e-12
            assert row.normalized["CC"] >= row.normalized["C1"] - 1e-12

    def test_ring_beats_c1_on_small_system(self, rows):
        """Paper: R shows better performance than C1 on the DGX-1."""
        wins = sum(
            1 for row in rows if row.normalized["R"] >= row.normalized["C1"]
        )
        assert wins >= len(rows) * 0.8

    def test_ccube_beats_ring_except_small_zfnet(self, rows):
        for row in rows:
            if row.network == "zfnet" and row.batch == 16:
                continue
            assert row.normalized["CC"] >= row.normalized["R"] - 1e-9

    def test_efficiency_rises_with_batch(self, rows):
        by_key = {(r.network, r.batch, r.bandwidth): r for r in rows}
        for net in ("zfnet", "vgg16", "resnet50"):
            for bw in ("low", "high"):
                assert (by_key[(net, 256, bw)].normalized["CC"]
                        >= by_key[(net, 16, bw)].normalized["CC"])

    def test_high_bandwidth_more_efficient(self, rows):
        by_key = {(r.network, r.batch, r.bandwidth): r for r in rows}
        for net in ("zfnet", "vgg16", "resnet50"):
            assert (by_key[(net, 16, "high")].normalized["B"]
                    > by_key[(net, 16, "low")].normalized["B"])

    def test_headline_bands(self, rows):
        stats = fig13_overall.summarize(rows)
        assert stats["C1/B mean"] > 1.03
        assert stats["CC/B mean"] > 1.10
        assert stats["CC/B max"] > 1.4
        assert stats["CC best efficiency"] > 0.97


class TestFig14:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig14_scaleout.run(nodes=(8, 32, 128))

    def test_c1_beats_ring_everywhere(self, rows):
        assert all(r.c1_over_ring > 1.0 for r in rows)

    def test_small_message_advantage_grows_with_p(self, rows):
        small = [r for r in rows if r.nbytes < 1 * _MB]
        ratios = [r.c1_over_ring for r in small]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 10.0  # paper: up to ~20x

    def test_turnaround_speedup_band(self, rows):
        """Paper Fig. 14(b): no benefit at one chunk, tens of x at 256."""
        for row in rows:
            if row.nchunks == 1:
                assert row.turnaround_speedup == pytest.approx(1.0, abs=0.05)
            if row.nchunks == 256:
                assert row.turnaround_speedup > 15.0

    def test_overlap_never_slower(self, rows):
        assert all(r.overlapped_time <= r.baseline_time for r in rows)


class TestFig15:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig15_detour.run()

    def test_only_gpu0_forwards(self, rows):
        forwarding = [r.gpu for r in rows if r.forwarded_mb > 0]
        assert forwarding == [0]

    def test_detour_loss_band(self, rows):
        """Paper: detour nodes lose only 3-4%."""
        gpu0 = next(r for r in rows if r.gpu == 0)
        assert 0.95 < gpu0.normalized_performance < 0.98

    def test_non_detour_gpus_unaffected(self, rows):
        for row in rows:
            if row.gpu != 0:
                assert row.normalized_performance == pytest.approx(1.0)


class TestFig16:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig16_patterns.run()

    def test_case2_bubbles(self, rows):
        by_case = {r.case: r for r in rows}
        assert by_case["case2"].bubble_ms > by_case["case1"].bubble_ms

    def test_case3_turnaround_pushback(self, rows):
        by_case = {r.case: r for r in rows}
        assert (by_case["case3"].first_fwd_start_ms
                > 2 * by_case["case1"].first_fwd_start_ms)

    def test_case1_best(self, rows):
        by_case = {r.case: r for r in rows}
        assert by_case["case1"].normalized_performance == max(
            r.normalized_performance for r in rows
        )


class TestFig17:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig17_resnet_layers.run()

    def test_param_trend(self, rows):
        stats = fig17_resnet_layers.trend_summary(rows)
        assert stats["late mean param MB"] > 3 * stats["early mean param MB"]

    def test_compute_trend(self, rows):
        stats = fig17_resnet_layers.trend_summary(rows)
        assert stats["early mean fwd ms"] > stats["late mean fwd ms"]

    def test_one_row_per_layer(self, rows):
        assert len(rows) == 54


class TestAblations:
    def test_detour_beats_pcie(self):
        rows = ablations.run_detour_ablation(sizes=(64 * _MB,))
        assert rows[0].detour_speedup > 1.5

    def test_conflicts_hurt_without_double_links(self):
        rows = ablations.run_conflict_ablation(sizes=(64 * _MB,))
        assert rows[0].contention_slowdown > 1.3

    def test_chunk_sweep_optimum_near_eq4(self):
        rows = ablations.run_chunk_sweep()
        best = min(rows, key=lambda r: r.time_ms)
        flagged = next(r for r in rows if r.is_analytical_optimum)
        # Eq. 4's optimum is within one power-of-two of the simulated one.
        assert 0.5 <= flagged.nchunks / best.nchunks <= 2.0

    def test_each_ablation_formats_its_table(self):
        detour = ablations.format_detour_ablation(
            ablations.run_detour_ablation(sizes=(16 * _MB,)))
        conflict = ablations.format_conflict_ablation(
            ablations.run_conflict_ablation(sizes=(16 * _MB,)))
        chunks = ablations.format_chunk_sweep(
            ablations.run_chunk_sweep(chunk_counts=(8, 32, 128)))
        assert "detour" in detour
        assert "conflict" in conflict
        assert "chunk-count" in chunks


class TestExtFaults:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_faults.run(nbytes=4 * _MB)

    def test_two_modes_per_failed_link(self, rows):
        assert len(rows) == 2 * len(ext_faults.DEFAULT_FAILED_LINKS)
        assert {r.mode for r in rows} == {"detour", "pcie"}

    def test_every_reroute_verified(self, rows):
        assert all(r.verified for r in rows)

    def test_degradation_nonnegative(self, rows):
        """Losing a link can never speed the collective up."""
        assert all(r.slowdown_pct >= 0.0 for r in rows)
        assert all(r.degraded_us >= r.healthy_us for r in rows)

    def test_detour_reroute_cheaper_than_pcie(self, rows):
        """The point of topology-aware failover: rerouting over
        surviving NVLinks beats dropping to the host PCIe path."""
        by_link = {}
        for r in rows:
            by_link.setdefault(r.failed_link, {})[r.mode] = r
        for modes in by_link.values():
            assert (
                modes["detour"].degraded_us < modes["pcie"].degraded_us
            )

    def test_nvlink_reroute_adds_detours(self, rows):
        detour_rows = [r for r in rows if r.mode == "detour"]
        assert all(r.extra_detours > 0 for r in detour_rows)

    def test_format_table(self, rows):
        text = ext_faults.format_table(rows)
        assert "failed link" in text
        assert "2-6" in text


class TestExtFaultsEdgeCases:
    def test_duplicated_link_survives_single_brick_loss(self):
        """Failing one brick of the doubled GPU2-GPU3 / GPU6-GPU7
        channels leaves the same-pair duplicate carrying both trees:
        no reroute (the direct link still exists), just contention."""
        rows = ext_faults.run(
            nbytes=4 * _MB, failed_links=((2, 3, 1), (6, 7, 0))
        )
        detour_rows = [r for r in rows if r.mode == "detour"]
        assert len(detour_rows) == 2
        for r in detour_rows:
            assert r.lane in (0, 1)
            assert r.verified
            assert r.extra_detours == 0  # contention, not rerouting
            assert r.degraded_us >= r.healthy_us

    def test_lane_column_rendered(self):
        rows = ext_faults.run(nbytes=4 * _MB, failed_links=((2, 3, 1),))
        assert "lane 1" in ext_faults.format_table(rows)

    def test_infeasible_failure_reported_not_fatal(self):
        """Failing the middle link of a line topology splits it: the
        detour policy cannot re-embed the double tree at all, and the
        sweep must report that row as infeasible instead of dying —
        while the PCIe fallback (which re-bridges the cut) survives."""
        from repro.topology.base import PhysicalTopology
        from repro.topology.logical import two_trees

        line = PhysicalTopology(nnodes=8, name="line8")
        for i in range(7):
            # Two lanes so the two trees do not conflict on the line.
            line.add_link(i, i + 1, alpha=1e-6, beta=1e-9)
            line.add_link(i, i + 1, alpha=1e-6, beta=1e-9)
        line.validate()
        rows = ext_faults.run(
            nbytes=4 * _MB,
            failed_links=((3, 4),),
            topo=line,
            trees=two_trees(8),
            detour_preference=(),
        )
        by_mode = {r.mode: r for r in rows}
        infeasible = by_mode["detour"]
        assert math.isinf(infeasible.degraded_us)
        assert math.isinf(infeasible.slowdown_pct)
        assert not infeasible.verified
        assert by_mode["pcie"].verified
        assert math.isfinite(by_mode["pcie"].degraded_us)
        text = ext_faults.format_table(rows)
        assert "INFEASIBLE" in text
        assert "NO" in text


class TestExtRecovery:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_recovery.run(sizes=(1 * _MB, 64 * _MB))

    def test_one_row_per_size(self, rows):
        assert [r.nbytes for r in rows] == [1 * _MB, 64 * _MB]

    def test_reembedding_is_feasible_but_slower(self, rows):
        for r in rows:
            assert r.conflicts >= 0 and r.detours >= 0
            assert r.degraded_us > r.healthy_us
            assert r.slowdown_pct > 0.0

    def test_crossover_reported(self, rows):
        """The headline of the experiment: a finite remaining-iteration
        count above which restart-from-checkpoint wins, and the policy
        agreeing on both sides of it."""
        for r in rows:
            assert 0.0 < r.crossover_iterations < math.inf
            assert r.decisions == ("reembed", "restart")

    def test_crossover_math(self):
        assert ext_recovery.crossover_point(
            1.0, 2.0, restart_overhead=30.0
        ) == pytest.approx(30.0)
        assert ext_recovery.crossover_point(
            1.0, 2.0, restart_overhead=30.0, lost_iterations=10.0
        ) == pytest.approx(40.0)
        assert math.isinf(
            ext_recovery.crossover_point(1.0, 1.0, restart_overhead=30.0)
        )

    def test_crossover_shrinks_with_message_size(self, rows):
        """Bigger gradients make the degraded tax larger per iteration,
        so restart pays off sooner."""
        assert rows[1].crossover_iterations < rows[0].crossover_iterations

    def test_format_table(self, rows):
        text = ext_recovery.format_table(rows)
        assert "restart wins above" in text
        assert "policy @0.5x, 2x" in text
        assert "reembed, restart" in text

    def test_staleness_raises_the_crossover(self, rows):
        """A stale checkpoint owes redo work, so restart needs *more*
        remaining iterations before it wins."""
        for r in rows:
            assert r.lost_iterations > 0
            assert r.crossover_stale > r.crossover_iterations
            assert r.decisions_stale == ("reembed", "restart")

    def test_policy_claim_sees_both_picks(self, rows):
        """The registry claim holds here, and fails when the policy is
        only ever asked on one side of the crossover."""
        (claim,) = EXPERIMENTS["ext_recovery"].claims
        assert claim.check(rows)[1]
        for picks in (("reembed", "reembed"), ("restart", "restart")):
            one_sided = [replace(r, decisions=picks) for r in rows]
            assert not claim.check(one_sided)[1]

    def test_stale_columns_rendered(self, rows):
        text = ext_recovery.format_table(rows)
        assert "iters stale" in text
        assert "stale ckpt" in text


class TestExtPlans:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_plans.run(nbytes=4 * _MB, nchunks=4)

    def test_every_algorithm_compared(self, rows):
        names = [r.algorithm for r in rows]
        assert names == [
            "ring",
            "tree",
            "double_tree",
            "halving_doubling",
            "double_tree (C-Cube)",
        ]

    def test_all_plans_verified(self, rows):
        assert all(r.verified for r in rows)

    def test_gap_within_acceptance(self, rows):
        """The headline: the lowered plan's simulated time equals the
        hand-written schedule's, bit for bit."""
        for r in rows:
            assert r.planned_us == r.handwritten_us, r

    def test_physical_row_uses_dgx1(self, rows):
        assert rows[-1].target == "dgx1"
        assert rows[-1].ops > 0

    def test_format_table(self, rows):
        text = ext_plans.format_table(rows)
        assert text.splitlines()[0] == (
            "Extension — plan IR vs hand-written schedules "
            "(DGX-1, 4 MB, 4 chunks)"
        )
        assert "C-Cube" in text
