"""Bench: regenerate every experiment and check its claims.

One case per :mod:`repro.experiments.registry` experiment (each one
carries claims): it runs the experiment's default run once, prints the rows the paper
plots, and asserts that each of the experiment's claim rows reaches its
declared verdict — a reproduced claim passes, and a claim declared "not
reproduced" still fails.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments import certify
from repro.experiments.registry import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_claims(benchmark, name):
    experiment = EXPERIMENTS[name]
    rows = run_once(benchmark, experiment.run)
    print()
    print(experiment.format_table(rows))
    for verdict in certify.evaluate(experiment, rows):
        assert verdict.as_declared, verdict.describe()
