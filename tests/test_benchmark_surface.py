"""The frozen end-to-end benchmark's view of ``repro``, checked in tier-1.

``benchmarks/e2e`` is frozen: its adapters import ``repro`` names and its
tracer (``e2e_trace``) rebinds entry points by module and attribute
name.  Three things are pinned here, each in a fresh interpreter with
``benchmarks/e2e`` on ``sys.path`` (pytest has already imported most of
``repro`` by the time a test body runs):

- **The pinned surface.**  Every adapter imports, and every entry of the
  tracer's ``FUNCTIONS``, ``METHODS`` and ``COUNTED`` tables — read from
  ``e2e_trace``, not copied — resolves exactly as ``Tracer.install``
  resolves it, as does the ``repro.runtime.sync.time`` binding the tracer
  replaces.  DESIGN's "Pinned benchmark names" table gives each name the
  one path behind it.
- **The attributes the traced metrics read.**  One traced op after the
  warm-up derives the per-layer metrics as the traced slice does, so
  ``ChainedTrainingRuntime.requirements`` and ``.runtime.trees``,
  ``RunReport.enqueue_times``, ``compute_log``, ``runtime.layout`` and
  ``runtime.detour_map``, ``PlanInterpreter.plan.ops`` and
  ``PlanOp.chunks_carried()`` are each read where the tracer reads them.
- **The loaded-source budget.**  After each workload's untimed warm-up
  op, the ``repro`` modules loaded and their source lines stay at or
  below the ceilings in :data:`LOADED_BUDGET`.  The slices run without
  bytecode caches, so every loaded line is compiled inside ``setup_s``;
  a module a workload loads but never runs costs gated time.  Lower a
  ceiling when a deletion lands; raise one only with the reason in the
  change that does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"
WORKLOADS = tuple(
    w["name"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
)

#: Workload -> (repro modules, source lines) loaded after the warm-up.
LOADED_BUDGET = {
    "train_cc_resnet50": (29, 4331),
    "train_b_vgg16": (20, 3303),
    "sim_fig13": (33, 4256),
    "recover_dgx1": (43, 11307),
}

#: Workload -> modules its warm-up must not load: code it never runs.
NOT_LOADED = {
    "train_cc_resnet50": (
        "repro.runtime.faults",
        # The Fig. 13 model its adapter imports runs only in a traced
        # slice: the emitters and the DES load on the first simulate call.
        "repro.collectives.tree",
        "repro.sim.dag",
        "repro.sim.engine",
        "repro.topology.base",
        "repro.topology.embedding",
    ),
    "train_b_vgg16": (
        "repro.runtime.faults",
        "repro.runtime.queue_runtime",
    ),
    "sim_fig13": (),
    "recover_dgx1": (
        "repro.runtime.allreduce",
        "repro.runtime.queue_runtime",
    ),
}


#: Workload -> what one traced op must derive: wire bytes from a tree
#: runtime's layout, trees and detours or an interpreter's plan ops, and
#: a per-layer timeline from each chained run.
TRACED = {
    "train_cc_resnet50": ("wire_bytes", "chain_runs"),
    "train_b_vgg16": ("wire_bytes",),
    "sim_fig13": (),
    "recover_dgx1": ("wire_bytes",),
}


def run_with_adapters(code: str) -> object:
    """Run ``code`` in a new interpreter that sees ``src`` and the
    benchmark adapters; return the JSON it prints last."""
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(E2E)] + ([path] if path else [])
        ),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_budget_covers_every_workload():
    for table in (LOADED_BUDGET, NOT_LOADED, TRACED):
        assert set(table) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_loaded_source_budget(workload):
    loaded = run_with_adapters(
        "import importlib, json, sys\n"
        f"importlib.import_module({workload!r}).Workload(2026).warmup()\n"
        "lines = {}\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name == 'repro' or name.startswith('repro.'):\n"
        "        with open(module.__file__, 'rb') as fh:\n"
        "            lines[name] = fh.read().count(b'\\n')\n"
        "print(json.dumps(lines))"
    )
    forbidden = [m for m in NOT_LOADED[workload] if m in loaded]
    assert forbidden == []
    modules, lines = LOADED_BUDGET[workload]
    largest = sorted(loaded.items(), key=lambda kv: -kv[1])[:5]
    assert len(loaded) <= modules, sorted(loaded)
    assert sum(loaded.values()) <= lines, largest


def test_pinned_names_resolve():
    """Every adapter imports and every traced entry point resolves the
    way ``Tracer.install`` looks it up."""
    errors = run_with_adapters(
        "import importlib, json\n"
        f"for name in {list(WORKLOADS)!r}:\n"
        "    importlib.import_module(name)\n"
        "import e2e_trace\n"
        "errors = []\n"
        "def check(label, lookup):\n"
        "    try:\n"
        "        if not callable(lookup()):\n"
        "            errors.append(f'{label}: not callable')\n"
        "    except (AttributeError, ImportError, KeyError) as exc:\n"
        "        errors.append(f'{label}: {exc!r}')\n"
        "for _, module, attr in e2e_trace.FUNCTIONS:\n"
        "    check(f'{module}.{attr}', lambda: getattr(\n"
        "        importlib.import_module(module), attr))\n"
        "for _, module, cls, attr in e2e_trace.METHODS:\n"
        "    check(f'{module}.{cls}.{attr}', lambda: getattr(\n"
        "        importlib.import_module(module), cls).__dict__[attr])\n"
        "for _, module, cls, attrs in e2e_trace.COUNTED:\n"
        "    for attr in attrs:\n"
        "        check(f'{module}.{cls}.{attr}', lambda: getattr(\n"
        "            importlib.import_module(module), cls).__dict__[attr])\n"
        "sync = importlib.import_module('repro.runtime.sync')\n"
        "check('repro.runtime.sync.time.sleep', lambda: sync.time.sleep)\n"
        "print(json.dumps(errors))"
    )
    assert errors == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_resolve(workload):
    """After the warm-up, one op under ``e2e_trace.Tracer`` derives every
    per-layer metric the traced slice derives: a missing attribute
    raises out of the op, and each expected derivation must have run."""
    derived = run_with_adapters(
        "import importlib, json\n"
        "import e2e_trace\n"
        f"w = importlib.import_module({workload!r}).Workload(2026, tiny=True)\n"
        "w.warmup()\n"
        "tracer = e2e_trace.Tracer()\n"
        "tracer.install()\n"
        "try:\n"
        "    with tracer.op(0):\n"
        "        w.op(0)\n"
        "finally:\n"
        "    tracer.restore()\n"
        "e2e_trace.layer_metrics(tracer, 1)\n"
        "if hasattr(w, 'predicted_ready_fractions'):\n"
        "    e2e_trace.chain_table(\n"
        "        tracer.chain_runs, w.predicted_ready_fractions())\n"
        "print(json.dumps({\n"
        "    'wire_bytes': tracer.counters['runtime.wire_bytes'],\n"
        "    'chain_runs': len(tracer.chain_runs),\n"
        "}))"
    )
    assert sorted(k for k, v in derived.items() if v) == sorted(
        TRACED[workload]
    ), derived
