"""Command-line interface.

Usage::

    python -m repro compare --network resnet50 --batch 64 [--low-bandwidth]
    python -m repro figures [fig12 fig13 ...]
    python -m repro autotune --network vgg16 --batch 16
    python -m repro chaos drops --drop 0.05 --corrupt 0.02
    python -m repro chaos crash --gpu 3
    python -m repro chaos crash --recover --gpu -1 --seed 7
    python -m repro chaos crash --recover --soak 3 --seed 7
    python -m repro chaos plan --seed 7 --cascade
    python -m repro chaos elastic --events crash:3,join:3 --seed 7
    python -m repro chaos elastic --soak 10 --save-dir failing/
    python -m repro plan show --algorithm double_tree --physical
    python -m repro plan verify --all
    python -m repro plan export --algorithm ring --out ring.json
    python -m repro plan verify ring.json
    python -m repro plan run --algorithm ring --elems 1024
    python -m repro analyze --all
    python -m repro sanitize list
    python -m repro sanitize run --all --elems 256
    python -m repro sanitize run --scenario seeded_dropped_post --json
    python -m repro sanitize report findings.json
    python -m repro fuzz run --schedules 25 --all
    python -m repro fuzz run --scenario tree --schedules 200 --policy pct
    python -m repro fuzz replay failure.json
    python -m repro fuzz report failure.json
    python -m repro fuzz mutate --algorithm ring --mutants 50
    python -m repro ckpt drill --faults torn,bitflip --seed 7
    python -m repro ckpt inspect ckpt_dir/
    python -m repro synth tune --smoke --topology dgx1
    python -m repro info

Each subcommand family is one module of this package that binds its
parsers to their handlers with ``set_defaults(run=...)``; a handler
imports what it runs.  :func:`main` is the one error boundary.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.errors import ConfigError, PlanError


def positive_int(text: str) -> int:
    """Argparse type of every size and count flag: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _add_figures(sub) -> None:
    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("names", nargs="*", help="figNN ids (default: all)")
    figures.set_defaults(run=_figures)


def _figures(args: argparse.Namespace) -> int:
    from repro.experiments.runner import print_report

    print_report(args.names)
    return 0


def _add_info(sub) -> None:
    sub.add_parser(
        "info", help="print library and model summary"
    ).set_defaults(run=_info)


def _info(_args: argparse.Namespace) -> int:
    from repro.core.config import Strategy
    from repro.dnn.networks import NETWORKS

    print(f"repro {__version__} — C-Cube (HPCA 2023) reproduction")
    print("\nnetworks:")
    for name, builder in sorted(NETWORKS.items()):
        net = builder()
        print(
            f"  {name:<10} {len(net):>3} layers  "
            f"{net.total_params / 1e6:7.1f}M params  "
            f"{net.total_bytes / 2**20:7.1f} MiB gradients"
        )
    print("\nstrategies: " + ", ".join(
        f"{s.value} ({s.algorithm})" for s in Strategy
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.cli import chaos, ckpt, plans, scenarios, strategies, synth

    parser = argparse.ArgumentParser(
        prog="repro",
        description="C-Cube (HPCA 2023) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (
        strategies.add_compare, _add_figures, strategies.add_autotune,
        chaos.add_chaos, plans.add_plan, plans.add_analyze,
        scenarios.add_sanitize, scenarios.add_fuzz, ckpt.add_ckpt,
        synth.add_synth, _add_info,
    ):
        add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, PlanError, OSError) as exc:
        # A bad input the parser cannot see (``--batch 0``, a missing
        # file, a plan that cannot be built): one line, exit 2.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
