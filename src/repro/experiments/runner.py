"""Run every paper experiment and print a combined report.

Usage::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner fig12 fig13

Names are the keys of :data:`repro.experiments.registry.EXPERIMENTS`.
"""

from __future__ import annotations

import sys

from repro.experiments.registry import EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(EXPERIMENTS)}")
        return 2
    for name in names:
        experiment = EXPERIMENTS[name]
        print(f"==== {name} " + "=" * max(0, 66 - len(name)))
        print(experiment.format_table(experiment.run()))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
