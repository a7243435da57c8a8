#!/usr/bin/env python
"""Print ``queue.overlap_frac`` from a traced end-to-end benchmark run.

A traced ``benchmarks/e2e/run.py --trace 1`` run stores, per chained
workload, a chain table in ``result.json``: one row per layer with the
medians over ops of ``last_arrival_ms`` (when the layer's last gradient
chunk reached a GPU) and ``forward_start_ms`` (when its forward pass
started), both after the AllReduce start.  ``queue.overlap_frac`` is the
fraction of rows whose forward pass starts before the table's largest
last arrival, i.e. of layers whose forward computation overlaps the
collective: the C2 chaining of Fig. 9.  A run that chains nothing reads 0.

Usage::

    python tools/chain_overlap.py DIR_OR_RESULT_JSON
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def overlap_frac(table: list[dict]) -> float:
    """Fraction of chain-table rows that start their forward pass before
    the collective's last arrival."""
    end = max(row["last_arrival_ms"] for row in table)
    return sum(row["forward_start_ms"] < end for row in table) / len(table)


def chain_tables(result: dict) -> dict[str, list[dict]]:
    """Workload -> its traced chain table, for workloads that have one."""
    return {
        w: entry["traced"]["chain_table"]
        for w, entry in result["workloads"].items()
        if (entry.get("traced") or {}).get("chain_table")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path,
                        help="a run.py --out directory or its result.json")
    path = parser.parse_args(argv).result
    if path.is_dir():
        path = path / "result.json"
    tables = chain_tables(json.loads(path.read_text()))
    if not tables:
        parser.error(f"{path}: no traced chain table (run with --trace 1)")
    for workload, table in tables.items():
        print(f"{workload} queue.overlap_frac {overlap_frac(table):.3f} "
              f"({len(table)} layers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
