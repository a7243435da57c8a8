"""Import budget and public API of the lazily exporting package inits.

Every package ``__init__`` re-exports through :mod:`repro._lazy`, so an
import loads only the submodules its names come from.  The budget cases
run in a fresh interpreter each: pytest itself has already imported most
of ``repro`` by the time a test body runs.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = (
    "repro",
    "repro.analyze",
    "repro.collectives",
    "repro.core",
    "repro.dnn",
    "repro.experiments",
    "repro.fuzz",
    "repro.models",
    "repro.plan",
    "repro.runtime",
    "repro.sanitizer",
    "repro.sim",
    "repro.synth",
    "repro.topology",
)

#: ``import repro`` loads the package, ``repro._lazy`` and
#: ``repro._version``; a little room for a future tiny dependency.
IMPORT_REPRO_BUDGET = 5


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_modules(statement: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    return run_fresh(
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m == 'repro' or m.startswith('repro.'))))"
    )


def under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


class TestImportBudget:
    def test_training_path_loads_no_tooling(self):
        loaded = loaded_modules(
            "from repro.runtime import FunctionalTrainer, TreeAllReduceRuntime"
        )
        assert "repro.runtime.training" in loaded
        forbidden = (
            "repro.plan",
            "repro.synth",
            "repro.analyze",
            "repro.runtime.recovery",
            "repro.runtime.elastic",
            "repro.runtime.checkpoint",
            "repro.sanitizer.races",
            "repro.core.pipeline",
        )
        hits = [m for m in loaded if any(under(m, f) for f in forbidden)]
        assert hits == []

    def test_shipped_program_runs_without_the_compiler(self):
        """Building the tree runtime for a shipped configuration and
        running one AllReduce loads no compiler, simulator, analyzer,
        synthesizer or router."""
        loaded = loaded_modules(
            "import numpy as np\n"
            "from repro.runtime import TreeAllReduceRuntime\n"
            "from repro.topology.dgx1_trees import DETOURED_EDGES, "
            "dgx1_trees\n"
            "runtime = TreeAllReduceRuntime(dgx1_trees(), total_elems=64, "
            "chunks_per_tree=8, detour_map=DETOURED_EDGES)\n"
            "runtime.run([np.ones(64)] * 8)"
        )
        assert "repro.runtime.executor" in loaded
        forbidden = (
            "repro.plan",
            "repro.sim",
            "repro.analyze",
            "repro.synth",
            "repro.topology.routing",
        )
        hits = [m for m in loaded if any(under(m, f) for f in forbidden)]
        assert hits == []

    def test_synth_fallback_loads_no_autotuner(self):
        loaded = loaded_modules("import repro.synth.fallback")
        assert "repro.synth.fallback" in loaded
        forbidden = (
            "repro.synth.tune",
            "repro.analyze.contention",
            "repro.experiments",
            "repro.experiments.report",
        )
        assert [m for m in loaded if m in forbidden] == []

    def test_pipeline_loads_no_runtime_and_no_sibling_tools(self):
        loaded = loaded_modules(
            "from repro.core.pipeline import IterationPipeline"
        )
        assert "repro.core.pipeline" in loaded
        forbidden = (
            "repro.runtime",
            "repro.models",
            "repro.core.autotune",
            "repro.collectives.verification",
            "repro.topology.tree_search",
        )
        hits = [m for m in loaded if any(under(m, f) for f in forbidden)]
        assert hits == []

    def test_plan_path_loads_no_emitter(self):
        loaded = loaded_modules(
            "import repro.plan.builders, repro.plan.passes, "
            "repro.plan.verifier, repro.plan.interpreter"
        )
        assert "repro.plan.interpreter" in loaded
        forbidden = (
            "repro.collectives.base",
            "repro.collectives.double_tree",
            "repro.collectives.halving_doubling",
            "repro.collectives.hierarchical",
            "repro.collectives.ring",
            "repro.collectives.tree",
            "repro.collectives.verification",
            "repro.sim.engine",
            "repro.topology.embedding",
        )
        hits = [m for m in loaded if any(under(m, f) for f in forbidden)]
        assert hits == []

    def test_cli_help_loads_no_library(self):
        """Building the parser imports only what the parsers need; each
        command imports what it runs."""
        loaded = loaded_modules(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "for argv in (['--help'], ['chaos', '--help']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            main(argv)\n"
            "        except SystemExit:\n"
            "            pass"
        )
        assert "repro.cli.chaos" in loaded
        forbidden = (
            "repro.sim",
            "repro.collectives",
            "repro.core",
            "repro.plan",
            "repro.runtime",
        )
        hits = [m for m in loaded if any(under(m, f) for f in forbidden)]
        assert hits == []

    def test_ring_order_is_one_constant_everywhere(self):
        result = run_fresh(
            "import json\n"
            "from repro.plan.builders import DGX1_RING_ORDER as a\n"
            "from repro.collectives import DGX1_RING_ORDER as b\n"
            "from repro.collectives.ring import DGX1_RING_ORDER as c\n"
            "from repro.topology.dgx1 import DGX1_RING_ORDER as d\n"
            "print(json.dumps([a is b is c is d, list(a)]))"
        )
        assert result == [True, [0, 1, 2, 3, 7, 6, 5, 4]]

    def test_import_repro_is_small(self):
        loaded = loaded_modules("import repro")
        assert len(loaded) <= IMPORT_REPRO_BUDGET, loaded


#: One call to each entry point that imports its dependencies on first
#: use; binds ``results`` to what the calls return, as JSON values.
COLD_CALLS = """
from repro.collectives.base import simulate_on_fabric, simulate_on_physical
from repro.collectives.double_tree import ccube_allreduce
from repro.collectives.ring import ring_allreduce
from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
from repro.topology.routing import Router
from repro.topology.switch import fat_tree_fabric

def timings(outcome):
    return [outcome.total_time, outcome.turnaround,
            list(outcome.logical_finish), sorted(outcome.chunk_available.items())]

fabric = simulate_on_fabric(ring_allreduce(8, 1e6), fat_tree_fabric(8))
topo = dgx1_topology()
physical = simulate_on_physical(
    ccube_allreduce(8, 1e6, nchunks=2), topo,
    router=Router(topo, detour_preference=DETOUR_NODES))
links = [[l.u, l.v, l.lane, l.alpha, l.beta, l.kind.value] for l in topo.links()]
results = [timings(fabric), timings(physical), links]
"""


def test_deferred_imports_resolve_on_a_cold_call():
    """The simulate calls and ``dgx1_topology`` import the DES, the
    embedding and the topology model on first use, where an import
    cycle that a cold import cannot see would raise.  Each call in a
    fresh interpreter returns what it returns in this one."""
    namespace: dict = {}
    exec(COLD_CALLS, namespace)
    cold = run_fresh("import json\n" + COLD_CALLS
                     + "print(json.dumps(results))")
    assert cold == json.loads(json.dumps(namespace["results"]))


#: Functions exported under the name of the submodule that defines them.
SHADOWED = (
    ("repro.topology", "dgx1_trees"),
)


@pytest.mark.parametrize("package, name", SHADOWED)
@pytest.mark.parametrize("submodule_first", [True, False])
def test_shadowed_export_stays_the_function(package, name, submodule_first):
    submodule = f"{package}.{name}"
    steps = [f"import {submodule}", f"from {package} import {name} as value"]
    if not submodule_first:
        steps.reverse()
    result = run_fresh(
        "import json, sys, types\n"
        + "\n".join(steps)
        + "\n"
        f"package = sys.modules[{package!r}]\n"
        f"module = sys.modules[{submodule!r}]\n"
        "print(json.dumps([\n"
        "    isinstance(value, types.FunctionType),\n"
        f"    value is getattr(module, {name!r}),\n"
        f"    getattr(package, {name!r}) is value,\n"
        "]))"
    )
    assert result == [True, True, True]


def defining_module(package: str, name: str, value: object) -> str | None:
    """The module under ``package`` whose attribute ``name`` is ``value``:
    the object's own ``__module__`` when it has one, else any loaded
    submodule (constants carry no ``__module__``)."""
    if isinstance(value, types.ModuleType):
        return value.__name__
    candidates = [getattr(value, "__module__", None)]
    candidates += sorted(m for m in sys.modules if m.startswith(package + "."))
    for candidate in candidates:
        if getattr(sys.modules.get(candidate), name, None) is value:
            return candidate
    return None


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_through_the_lazy_helper(package):
    pkg = importlib.import_module(package)
    assert pkg.__getattr__.__module__ == "repro._lazy"
    assert pkg.__dir__.__module__ == "repro._lazy"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_definition(package):
    pkg = importlib.import_module(package)
    listing = dir(pkg)
    for name in pkg.__all__:
        assert name in listing, name
        value = getattr(pkg, name)
        home = defining_module(package, name, value)
        assert home is not None and under(home, package), (name, home)
        # Resolved once, then a plain attribute of the package.
        assert vars(pkg)[name] is value


def test_submodules_resolve_as_attributes():
    """Every submodule is reachable as an attribute of its package; it
    is imported on first use."""
    result = run_fresh(
        "import json, sys\n"
        "import repro\n"
        "training = repro.runtime.training\n"
        "print(json.dumps([\n"
        "    training is sys.modules['repro.runtime.training'],\n"
        "    repro.experiments.fig13_overall.__name__,\n"
        "]))"
    )
    assert result == [True, "repro.experiments.fig13_overall"]


def test_unknown_name_raises_attribute_error():
    import repro.runtime

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.runtime.no_such_name  # noqa: B018
