"""Benchmark-harness helpers.

``test_claims.py`` regenerates every paper figure: it runs each
experiment once under pytest-benchmark (pedantic, 1 round — the
experiments are deterministic simulations, not microbenchmarks), prints
the same rows the paper plots, and asserts the experiment's claim rows
so a regression in the reproduction fails the bench run.
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` once under the benchmark timer and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
