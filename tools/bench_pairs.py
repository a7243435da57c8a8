#!/usr/bin/env python
"""Interleaved pairs of the end-to-end benchmark on two checkouts.

Runs ``benchmarks/e2e/run.py --seconds S`` once per side per pair, in a
base checkout and a changed one, alternating which side runs first, with
``PYTHONDONTWRITEBYTECODE=1`` so that every slice compiles its source on
both sides.  Each run's value of a metric is its headline (the median
over its slices).  For every workload and every end-to-end metric in
``BENCHMARK.json``, plus ``failed_frac``, it prints each side's median
and quartiles over runs, the pairs the change won, and a verdict read
against the metric's bound:

- ``claimable gain``: the change is better in at least 9 of 10 pairs and
  its median is further from the base's than the base's IQR;
- ``regression``: the median is worse by more than the bound (for
  ``failed_frac``, any higher mean);
- ``unresolved``: either side's runs spread wider than the bound;
- ``within bound`` otherwise.

The rule is ``run.py``'s slice verdict, applied to runs instead of
slices.  Usage::

    python tools/bench_pairs.py BASE NEW --pairs 10 --seconds 25 --out DIR

Each run writes ``DIR/{base,new}-NN/result.json``; nothing is written
under either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from run import FAILED_FRAC, quartiles, verdict  # noqa: E402

SIDES = ("base", "new")


def load_metrics() -> dict[str, tuple[str, float]]:
    """Metric -> (better, bound): ``BENCHMARK.json``'s end-to-end metrics
    and ``failed_frac``, which is gated with a zero bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"])
               for m in spec["end_to_end"]}
    metrics[FAILED_FRAC] = ("lower", 0.0)
    return metrics


def pair_verdict(base: list[float], new: list[float], better: str,
                 bound: float) -> str:
    """The verdict on one metric, given its per-run values in pair order."""
    word = verdict(base, new, better, bound)
    return "claimable gain" if word == "gain" else word


def run_once(checkout: Path, seconds: float, out: Path) -> None:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--seconds",
           str(seconds), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}\n"
                         + proc.stderr[-4000:])


def run_pairs(base: Path, new: Path, pairs: int, seconds: float,
              out: Path) -> None:
    checkouts = dict(zip(SIDES, (base, new)))
    for side, checkout in checkouts.items():
        caches = sum(1 for _ in (checkout / "src").rglob("__pycache__"))
        print(f"{side}: {checkout} ({caches} __pycache__ dirs under src)",
              flush=True)
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run_once(checkouts[side], seconds, out / f"{side}-{i:02d}")
        print(f"pair {i + 1}/{pairs} done ({' then '.join(order)})",
              flush=True)


def read_runs(out: Path) -> dict[str, list[dict]]:
    """Side -> each complete pair's ``result.json``, in pair order."""
    runs = {side: sorted(out.glob(f"{side}-*/result.json"))
            for side in SIDES}
    n = min(len(paths) for paths in runs.values())
    return {side: [json.loads(p.read_text()) for p in paths[:n]]
            for side, paths in runs.items()}


def summarize(runs: dict[str, list[dict]],
              metrics: dict[str, tuple[str, float]]) -> list[dict]:
    """One row per workload and metric, with both sides' per-run values."""
    rows = []
    for workload in runs["base"][0]["workloads"]:
        for metric, (better, bound) in metrics.items():
            values = {
                side: [r["workloads"][workload]["summary"]["headline"][metric]
                       for r in results]
                for side, results in runs.items()
            }
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (n - b) > 0
                       for b, n in zip(values["base"], values["new"]))
            rows.append({
                "workload": workload, "metric": metric, **values,
                "wins": wins,
                "verdict": pair_verdict(values["base"], values["new"],
                                        better, bound),
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    n = len(rows[0]["base"]) if rows else 0
    print(f"{n} pairs; each side: median [q1, q3] over runs")
    for row in rows:
        cells = []
        for side in SIDES:
            q1, med, q3 = quartiles(row[side])
            cells.append(f"{side} {med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{row['workload']:<18} {row['metric']:<12} "
              + "  ".join(cells)
              + f"  won {row['wins']}/{n}  {row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the runs (default: a new "
                             "temporary directory)")
    args = parser.parse_args(argv)
    out = args.out or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    out = out.resolve()
    if any(out.is_relative_to(c.resolve() / "benchmarks" / "e2e")
           for c in (args.base, args.new)):
        parser.error("--out must not be under benchmarks/e2e")
    print(f"runs under {out}", flush=True)
    run_pairs(args.base.resolve(), args.new.resolve(), args.pairs,
              args.seconds, out)
    print_rows(summarize(read_runs(out), load_metrics()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
