"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CCubeConfig
from repro.dnn.layers import LayerKind, LayerSpec, NetworkModel
from repro.plan.ir import PlanOp
from repro.runtime.sync import SpinConfig
from repro.sim.dag import Op
from repro.topology.dgx1 import dgx1_topology
from repro.topology.switch import FabricSpec


@pytest.fixture
def small_config() -> CCubeConfig:
    """8-node system with round alpha/beta for easy hand-checks."""
    return CCubeConfig(nnodes=8, alpha=1e-6, beta=1e-9, nrings=2, max_chunks=64)


@pytest.fixture
def fabric() -> FabricSpec:
    """Abstract 8-endpoint fabric with dedicated logical channels."""
    return FabricSpec(nnodes=8, alpha=1e-6, beta=1e-9, lanes=2, name="test")


@pytest.fixture
def op_rows(monkeypatch):
    """Records the id of every :class:`~repro.sim.dag.Op` row built
    while the test runs."""
    built = []
    init = Op.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("op_id", args[0] if args else None))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Op, "__init__", counting_init)
    return built


@pytest.fixture
def plan_rows(monkeypatch):
    """Records the id of every :class:`~repro.plan.ir.PlanOp` row built
    while the test runs."""
    built = []
    init = PlanOp.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("op_id", args[0] if args else None))
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlanOp, "__init__", counting_init)
    return built


@pytest.fixture
def dgx1():
    return dgx1_topology()


@pytest.fixture
def tiny_network() -> NetworkModel:
    """Six layers with distinct sizes; total 21504 params."""
    layers = tuple(
        LayerSpec(
            name=f"L{i + 1}",
            params=1024 * (i + 1),
            fwd_flops=1e7 * (6 - i),
            kind=LayerKind.CONV,
            channels=64 * (i + 1),
        )
        for i in range(6)
    )
    return NetworkModel(name="tiny", layers=layers)


@pytest.fixture
def fast_spin() -> SpinConfig:
    """Short-timeout spin config so broken runtime tests fail quickly."""
    return SpinConfig(timeout=10.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


# -- opt-in sanitizer mode (`pytest --sanitize`) --------------------------
#
# Wraps every test in a fresh vector-clock tracer: all device-level sync
# and memory traffic the test triggers is checked for data races
# and semaphore wait cycles, and any finding
# fails the test.  Tests that *seed* bugs on purpose opt out with
# ``@pytest.mark.no_sanitize``.


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="run every test under the device-memory sanitizer and fail "
             "on any race / wait cycle",
    )
    parser.addoption(
        "--fuzz-schedules",
        action="store",
        type=int,
        default=0,
        metavar="N",
        help="run every test N times, each under a distinct seeded "
             "adversarial schedule (repro.fuzz chaos scheduler); tests "
             "marked no_fuzz run once, unperturbed",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "no_sanitize: test deliberately breaks sync or measures memory; skip tracer checks",
    )
    config.addinivalue_line(
        "markers",
        "no_fuzz: test is timing-sensitive or manages its own "
        "scheduler; skip --fuzz-schedules perturbation",
    )


# -- opt-in schedule fuzzing (`pytest --fuzz-schedules=N`) ----------------
#
# Parametrizes every test N ways; each instance runs under a chaos
# scheduler whose seed derives from the test's nodeid and the instance
# index, so any sync traffic the test triggers is stretched through a
# distinct, reproducible adversarial interleaving.  Tests that are
# timing-sensitive (or push their own scheduler) opt out with
# ``@pytest.mark.no_fuzz``.


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    schedules = metafunc.config.getoption("--fuzz-schedules")
    if schedules <= 0:
        return
    if metafunc.definition.get_closest_marker("no_fuzz"):
        return
    if hasattr(metafunc.function, "hypothesis"):
        # Hypothesis's differing_executors health check forbids calling
        # one @given test from several class instances, which N-way
        # parametrization would do — property tests get one fuzzed
        # schedule instead (they already explore many examples inside).
        schedules = 1
    if "_fuzz_schedule" in metafunc.fixturenames:
        metafunc.parametrize(
            "_fuzz_schedule",
            range(schedules),
            indirect=True,
            ids=[f"sched{i}" for i in range(schedules)],
        )


@pytest.fixture(autouse=True)
def _fuzz_schedule(request: pytest.FixtureRequest):
    index = getattr(request, "param", None)
    if index is None:
        yield
        return
    import zlib

    from repro.fuzz import RandomWalkPolicy, fuzzing

    seed = zlib.crc32(request.node.nodeid.encode()) + index
    with fuzzing(RandomWalkPolicy(seed)):
        yield


@pytest.fixture(autouse=True)
def _sanitize_guard(request: pytest.FixtureRequest):
    if not request.config.getoption("--sanitize"):
        yield
        return
    if request.node.get_closest_marker("no_sanitize"):
        yield
        return
    from repro.sanitizer.tracer import tracing

    with tracing() as traced:
        yield
    report = traced.report
    if report is not None and not report.ok:
        pytest.fail(
            "sanitizer findings in traced test:\n" + report.describe(),
            pytrace=False,
        )
