"""CSV export of experiment results.

Every experiment returns a list of flat dataclass rows; this module turns
any such list into CSV (for plotting outside Python) and can dump the
whole evaluation in one call::

    python -m repro.experiments.export out_dir/
"""

from __future__ import annotations

import csv
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigError


def rows_to_csv(rows: Sequence[object], path: str | Path) -> None:
    """Write dataclass rows as CSV (one column per field).

    Dict-valued fields (e.g. Fig. 13's per-strategy map) are flattened
    into ``field.key`` columns.

    Raises:
        ConfigError: for empty input or non-dataclass rows.
    """
    if not rows:
        raise ConfigError("nothing to export")
    if not dataclasses.is_dataclass(rows[0]):
        raise ConfigError("rows must be dataclasses")

    def flatten(row: object) -> dict[str, object]:
        out: dict[str, object] = {}
        for key, value in dataclasses.asdict(row).items():  # type: ignore[arg-type]
            if isinstance(value, dict):
                for sub, subval in value.items():
                    out[f"{key}.{sub}"] = subval
            elif isinstance(value, (list, tuple)):
                out[key] = ";".join(str(v) for v in value)
            else:
                out[key] = value
        return out

    flat = [flatten(row) for row in rows]
    fieldnames = list(flat[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(flat)


def export_all(out_dir: str | Path) -> list[Path]:
    """Run every registry experiment and write ``<name>.csv`` for each;
    returns the paths."""
    from repro.experiments.registry import EXPERIMENTS

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, experiment in EXPERIMENTS.items():
        path = out / f"{name}.csv"
        rows_to_csv(experiment.run(), path)
        written.append(path)
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "experiment_csv"
    for written_path in export_all(target):
        print(written_path)
