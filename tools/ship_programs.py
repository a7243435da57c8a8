"""Regenerate the tree-runtime programs shipped with the package.

Rebuilds, verifies and compiles every configuration in
:func:`repro.plan.compiler.shipped_configs` and writes its program JSON
to ``src/repro/runtime/programs/``.  ``tests/test_program_digests.py``
fails until this is rerun after a change to the builders, the
verifier's facts or the program format.

Usage: ``PYTHONPATH=src python tools/ship_programs.py``
"""

from __future__ import annotations

from pathlib import Path

from repro.plan.compiler import shipped_configs, tree_program
from repro.runtime.executor import program_filename

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "src" / "repro" / "runtime" / "programs"


def main() -> None:
    for stale in PROGRAMS.glob("*.json"):
        stale.unlink()
    for config in shipped_configs():
        program = tree_program(**config, portable=True)
        name = program_filename(program.key)
        (PROGRAMS / name).write_text(program.to_json())
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
