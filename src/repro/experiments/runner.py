"""Run every paper experiment and print a combined report.

Usage::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner fig12 fig13

Names are the keys of :data:`repro.experiments.registry.EXPERIMENTS`.
The same report is ``python -m repro figures``, whose error boundary
this entry point shares.
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.errors import ConfigError
from repro.experiments.registry import EXPERIMENTS


def print_report(names: Sequence[str] = ()) -> None:
    """Print the table of each named experiment (default: all).

    Raises:
        ConfigError: when a name is not an experiment; nothing is run.
    """
    names = list(names) or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ConfigError(
            f"unknown experiments: {unknown}; available: {list(EXPERIMENTS)}"
        )
    for name in names:
        experiment = EXPERIMENTS[name]
        print(f"==== {name} " + "=" * max(0, 66 - len(name)))
        print(experiment.format_table(experiment.run()))
        print()


def main(argv: list[str] | None = None) -> int:
    from repro.cli import main as cli_main

    return cli_main(
        ["figures", *(argv if argv is not None else sys.argv[1:])]
    )


if __name__ == "__main__":
    raise SystemExit(main())
