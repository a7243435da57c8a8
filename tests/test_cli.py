"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCompare:
    def test_compare_prints_all_strategies(self, capsys):
        assert main(["compare", "--network", "zfnet", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        for strategy in ("B", "C1", "C2", "R", "CC"):
            assert f"\n{strategy} " in out or out.startswith(f"{strategy} ")

    def test_compare_low_bandwidth_flag(self, capsys):
        assert main([
            "compare", "--network", "zfnet", "--batch", "16",
            "--low-bandwidth",
        ]) == 0
        assert "bandwidth=low" in capsys.readouterr().out

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--network", "lenet-9000"])

    @pytest.mark.parametrize("batch", ["0", "-4"])
    def test_non_positive_batch_clean_error(self, capsys, batch):
        assert main(["compare", "--network", "zfnet", "--batch", batch]) == 2
        err = capsys.readouterr().err
        assert "repro compare: error: batch must be >= 1" in err


class TestInfo:
    def test_info_lists_networks(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("zfnet", "vgg16", "resnet50"):
            assert name in out
        assert "strategies" in out


class TestAutotune:
    def test_autotune_reports_best(self, capsys):
        assert main(["autotune", "--network", "zfnet", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "best strategy" in out
        assert "speedup over baseline" in out

    @pytest.mark.parametrize("batch", ["0", "-4"])
    def test_non_positive_batch_clean_error(self, capsys, batch):
        assert main(["autotune", "--network", "zfnet", "--batch", batch]) == 2
        err = capsys.readouterr().err
        assert "repro autotune: error: batch must be >= 1" in err


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "fig04"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiments: ['fig99']" in captured.err


class TestChaos:
    def test_drops_recovers_bit_identical(self, capsys):
        assert main([
            "chaos", "drops", "--iterations", "1", "--elems", "256",
            "--delay", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to serial reference: yes" in out
        assert "fault stats:" in out

    def test_crash_aborts_with_diagnostics(self, capsys):
        assert main(["chaos", "crash", "--gpu", "3", "--elems", "256"]) == 0
        out = capsys.readouterr().out
        assert "cluster aborted" in out
        assert "injected crash on gpu 3" in out
        assert "per-GPU last-known phase" in out
        assert "-- semaphores --" in out

    def test_stuck_aborts_within_budget(self, capsys):
        assert main(["chaos", "stuck", "--gpu", "5", "--elems", "256"]) == 0
        out = capsys.readouterr().out
        assert "cluster aborted" in out
        assert "timed out" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "rowhammer"])

    def test_invalid_probability_clean_error(self, capsys):
        assert main(["chaos", "drops", "--drop", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "probabilities must be in [0, 1)" in err

    def test_unknown_gpu_clean_error(self, capsys):
        assert main(["chaos", "crash", "--gpu", "9"]) == 2
        assert "unknown gpu 9" in capsys.readouterr().err


class TestPlanShow:
    def test_each_op_printed_once(self, capsys):
        import re

        args = ["plan", "show", "--algorithm", "ring", "--nnodes", "4"]
        assert main(args) == 0
        out = capsys.readouterr().out
        nops = int(re.search(r", (\d+) ops,", out).group(1))
        ids = re.findall(r"^\s+op (\d+) \[", out, flags=re.M)
        assert sorted(map(int, ids)) == list(range(nops))


class TestChaosElastic:
    def test_crash_join_cycle_bit_exact(self, capsys):
        assert main([
            "chaos", "elastic", "--events", "crash:3,join:3",
            "--seed", "7", "--elems", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert "plan 200 ops verified" in out
        assert "plan 248 ops verified" in out
        assert (
            "bit-identical to multi-segment serial reference: yes" in out
        )

    def test_restore_at_crash_iteration_loses_nothing(self, capsys):
        # The generation committed at iteration 2 is the crash
        # iteration itself: no completed iteration is redone.
        assert main([
            "chaos", "elastic", "--events", "crash:3,join:3",
            "--policy", "restart", "--seed", "7", "--elems", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert (
            "restore: generation 0 (iteration 2) reloaded; no completed "
            "iteration was lost" in out
        )
        assert "iterations 2..1" not in out
        assert (
            "bit-identical to multi-segment serial reference: yes" in out
        )

    def test_soak_reports_per_seed(self, capsys, tmp_path):
        assert main([
            "chaos", "elastic", "--soak", "2", "--seed", "11",
            "--elems", "256", "--save-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "soak: 2/2" in out
        assert list(tmp_path.glob("*.json")) == []

    def test_bad_event_spec_clean_error(self, capsys):
        assert main([
            "chaos", "elastic", "--events", "rowhammer:1",
        ]) == 2
        assert "rowhammer" in capsys.readouterr().err

    def test_bad_ckpt_fault_probability_clean_error(self, capsys):
        assert main(["chaos", "elastic", "--ckpt-faults", "torn:abc"]) == 2
        assert "bad storage fault probability 'abc'" in (
            capsys.readouterr().err
        )


class TestCkpt:
    def test_drill_never_loads_corruption(self, capsys):
        assert main([
            "ckpt", "drill", "--faults", "torn,bitflip", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "corrupt or uncommitted generation loaded: never" in out
        assert "corrupt_skipped" in out

    def test_drill_and_inspect_on_disk(self, capsys, tmp_path):
        root = tmp_path / "ckpt"
        assert main([
            "ckpt", "drill", "--faults", "torn:0.1", "--seed", "3",
            "--generations", "4", "--dir", str(root),
        ]) == 0
        capsys.readouterr()
        assert main(["ckpt", "inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "generation(s) valid" in out

    def test_inspect_empty_dir_fails(self, capsys, tmp_path):
        assert main(["ckpt", "inspect", str(tmp_path)]) == 1

    def test_unknown_fault_kind_clean_error(self, capsys):
        assert main(["ckpt", "drill", "--faults", "gremlins"]) == 2
        assert "gremlins" in capsys.readouterr().err

    def test_bad_fault_probability_clean_error(self, capsys):
        assert main(["ckpt", "drill", "--faults", "bitflip:x"]) == 2
        assert "bad storage fault probability 'x'" in (
            capsys.readouterr().err
        )


class TestFuzzMutate:
    def test_mutate_gate_reports_table(self, capsys):
        assert main([
            "fuzz", "mutate", "--algorithm", "ring", "--mutants", "6",
            "--elems", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "verify iff it runs clean" in out
        assert "killed" in out
        assert "unsound" in out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "mutate", "--algorithm", "teleport"])


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestPositiveInt:
    """Size and count flags reject a value below 1 at parse time."""

    @pytest.mark.parametrize("argv", [
        ["plan", "run", "--elems", "-3"],
        ["ckpt", "drill", "--generations", "0"],
        ["fuzz", "run", "--all", "--schedules", "0"],
        ["fuzz", "mutate", "--mutants", "0"],
        ["synth", "soak", "--fabrics", "0"],
    ], ids=["elems", "generations", "schedules", "mutants", "fabrics"])
    def test_non_positive_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: expected a positive integer" in err


class TestErrorBoundary:
    """One bad input per subcommand family: one ``repro <cmd>: error:``
    line on stderr, exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--network", "zfnet", "--batch", "0"],
        ["plan", "show", "--nnodes", "0"],
        ["plan", "verify", "{missing}"],
        ["plan", "export", "--out", "{tmp}/no/dir/x.json"],
        ["analyze", "{missing}"],
        ["sanitize", "report", "{malformed}"],
        ["fuzz", "replay", "{missing}"],
        ["synth", "tune", "--topology-json", "{missing}"],
        ["chaos", "plan", "--initial-dead", "1,x"],
        ["ckpt", "drill", "--faults", "gremlins"],
        ["figures", "nosuch"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_bad_input_is_one_error_line(self, argv, tmp_path, capsys):
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{not json")
        paths = dict(
            missing=tmp_path / "missing.json", malformed=malformed,
            tmp=tmp_path,
        )
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestCrashDrill:
    def test_recover_soak_is_bit_exact(self, capsys, tmp_path):
        assert main([
            "chaos", "crash", "--recover", "--soak", "2", "--seed", "7",
            "--elems", "256", "--save-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "seed 7: victim gpu 7 bit-exact",
            "seed 8: victim gpu 5 bit-exact",
            "soak: 2/2 trials bit-exact",
        ]
        assert list(tmp_path.glob("*.json")) == []
