"""``repro compare`` and ``repro autotune``: the paper's five training
strategies (B, C1, C2, R and CC of Fig. 13) on one workload, evaluated
once by :func:`repro.core.autotune.choose_strategy`."""

from __future__ import annotations

import argparse

from repro.dnn.networks import NETWORKS


def _add_workload(sub, name: str, summary: str, run) -> None:
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--network", choices=sorted(NETWORKS), required=True)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--low-bandwidth", action="store_true")
    parser.set_defaults(run=run)


def add_compare(sub) -> None:
    _add_workload(sub, "compare", "compare strategies on one workload",
                  _compare)


def add_autotune(sub) -> None:
    _add_workload(sub, "autotune", "pick the best strategy for a workload",
                  _autotune)


def _choose(args: argparse.Namespace):
    """``(bandwidth, choice)``: every strategy's iteration result on the
    workload ``args`` names."""
    from repro.core.autotune import choose_strategy
    from repro.core.config import Bandwidth, CCubeConfig

    bandwidth = Bandwidth.LOW if args.low_bandwidth else Bandwidth.HIGH
    choice = choose_strategy(
        NETWORKS[args.network](), args.batch,
        config=CCubeConfig().scaled(bandwidth),
    )
    return bandwidth, choice


def _compare(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table

    bandwidth, choice = _choose(args)
    rows = [
        (
            strategy.value,
            result.comm_total * 1e3,
            result.turnaround * 1e3,
            result.iteration_time * 1e3,
            f"{result.normalized_performance:.3f}",
        )
        for strategy, result in choice.results.items()
    ]
    print(
        render_table(
            ["strategy", "comm (ms)", "turnaround (ms)", "iteration (ms)",
             "normalized"],
            rows,
            title=(
                f"{args.network} batch={args.batch} "
                f"bandwidth={bandwidth.value}"
            ),
        )
    )
    return 0


def _autotune(args: argparse.Namespace) -> int:
    _, choice = _choose(args)
    print(f"best strategy: {choice.best.value}")
    print(f"speedup over baseline tree: {choice.speedup_over_baseline:.2f}x")
    for strategy, result in sorted(
        choice.results.items(), key=lambda kv: kv[1].iteration_time
    ):
        print(
            f"  {strategy.value:<3} iteration="
            f"{result.iteration_time * 1e3:9.3f} ms  "
            f"normalized={result.normalized_performance:.3f}"
        )
    return 0
