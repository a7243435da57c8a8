"""Unit tests for the discrete-event DAG executor."""

from array import array

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.dag import Dag, Phase
from repro.sim.analysis import phase_windows
from repro.sim.engine import DagSimulator, makespan
from repro.sim.resources import Channel, Processor
from repro.sim.trace import overlapping_pairs, utilization


def simple_resources():
    return {
        "chan": Channel(alpha=1.0, beta=1.0, name="chan"),
        "cpu": Processor(name="cpu"),
    }


class TestBasicExecution:
    def test_single_op_time(self):
        dag = Dag()
        dag.add("chan", nbytes=4.0)
        result = DagSimulator(simple_resources()).run(dag)
        assert result.makespan == pytest.approx(5.0)  # alpha + beta*4

    def test_empty_dag(self):
        result = DagSimulator(simple_resources()).run(Dag())
        assert result.makespan == 0.0
        assert result.trace == []

    def test_independent_ops_serialize_on_one_resource(self):
        dag = Dag()
        dag.add("chan", nbytes=1.0)
        dag.add("chan", nbytes=1.0)
        result = DagSimulator(simple_resources()).run(dag)
        assert result.makespan == pytest.approx(4.0)

    def test_independent_ops_parallel_on_two_resources(self):
        resources = {
            "a": Channel(alpha=0.0, beta=1.0),
            "b": Channel(alpha=0.0, beta=1.0),
        }
        dag = Dag()
        dag.add("a", nbytes=3.0)
        dag.add("b", nbytes=3.0)
        result = DagSimulator(resources).run(dag)
        assert result.makespan == pytest.approx(3.0)

    def test_dependency_delays_start(self):
        dag = Dag()
        a = dag.add("cpu", duration=2.0)
        dag.add("chan", nbytes=0.0, deps=[a])
        result = DagSimulator(simple_resources()).run(dag)
        assert result.start[1] == pytest.approx(2.0)
        assert result.makespan == pytest.approx(3.0)

    def test_duration_overrides_channel_timing(self):
        dag = Dag()
        dag.add("chan", nbytes=100.0, duration=0.5)
        result = DagSimulator(simple_resources()).run(dag)
        assert result.makespan == pytest.approx(0.5)

    def test_unknown_resource_raises(self):
        dag = Dag()
        dag.add("nope")
        with pytest.raises(SimulationError, match="unknown resources"):
            DagSimulator(simple_resources()).run(dag)

    def test_processor_without_duration_raises(self):
        dag = Dag()
        dag.add("cpu", nbytes=1.0)  # no duration
        with pytest.raises(SimulationError, match="without a duration"):
            DagSimulator(simple_resources()).run(dag)


class TestFifoOrdering:
    def test_ready_order_is_fifo_by_op_id_at_time_zero(self):
        dag = Dag()
        for i in range(4):
            dag.add("chan", nbytes=float(i))
        result = DagSimulator(simple_resources()).run(dag)
        starts = [result.start[i] for i in range(4)]
        assert starts == sorted(starts)
        assert result.start[0] == 0.0

    def test_later_ready_op_waits_for_earlier(self):
        resources = {
            "a": Channel(alpha=0.0, beta=1.0),
            "b": Channel(alpha=0.0, beta=1.0),
        }
        dag = Dag()
        slow = dag.add("a", nbytes=5.0)
        fast = dag.add("a", nbytes=1.0, deps=[])
        dep = dag.add("b", nbytes=1.0, deps=[slow])
        result = DagSimulator(resources).run(dag)
        assert result.start[fast] == pytest.approx(5.0)
        assert result.start[dep] == pytest.approx(5.0)

    def test_pipelining_emerges_from_channel_fifo(self):
        # Two-hop pipeline: chunk i goes A then B; B overlaps with A of i+1.
        resources = {
            "A": Channel(alpha=0.0, beta=1.0),
            "B": Channel(alpha=0.0, beta=1.0),
        }
        dag = Dag()
        for i in range(4):
            first = dag.add("A", nbytes=1.0)
            dag.add("B", nbytes=1.0, deps=[first])
        result = DagSimulator(resources).run(dag)
        # 4 chunks over a 2-stage pipeline of unit stages: 4 + 1 = 5.
        assert result.makespan == pytest.approx(5.0)


class TestTraceIntegrity:
    def test_no_resource_serves_two_ops_at_once(self):
        dag = Dag()
        for i in range(10):
            dag.add("chan", nbytes=1.0, deps=[i - 1] if i else [])
            dag.add("cpu", duration=0.3)
        result = DagSimulator(simple_resources()).run(dag)
        assert overlapping_pairs(result.trace) == []

    def test_trace_covers_every_op(self):
        dag = Dag()
        for _ in range(5):
            dag.add("chan", nbytes=1.0)
        result = DagSimulator(simple_resources()).run(dag)
        assert sorted(rec.op_id for rec in result.trace) == list(range(5))

    def test_busy_time_accumulates(self):
        dag = Dag()
        dag.add("chan", nbytes=1.0)
        dag.add("chan", nbytes=2.0)
        result = DagSimulator(simple_resources()).run(dag)
        busy = sum(
            rec.finish - rec.start for rec in result.trace
            if rec.resource == "chan"
        )
        assert busy == pytest.approx(2.0 + 3.0)


NAN, INF = float("nan"), float("inf")
ENGINES = ("run", "run_reference")


class TestNonFiniteInputs:
    """Both engines reject what the resources reject, with the same
    error, instead of simulating NaN or infinite timings."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("nbytes", [NAN, INF])
    def test_non_finite_transfer_size(self, engine, nbytes):
        dag = Dag()
        dag.add("chan", nbytes=1.0)
        dag.add("chan", nbytes=nbytes, deps=[0])
        simulator = DagSimulator(simple_resources())
        with pytest.raises(SimulationError, match="transfer size must be"):
            getattr(simulator, engine)(dag)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("resource", ["cpu", "chan"])
    def test_infinite_duration(self, engine, resource):
        dag = Dag()
        dag.add(resource, duration=INF)
        simulator = DagSimulator(simple_resources())
        with pytest.raises(SimulationError, match="non-finite duration"):
            getattr(simulator, engine)(dag)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_duration_means_no_duration(self, engine):
        # A Dag stores ``duration=None`` as NaN, so an explicit NaN is
        # "no duration": a channel prices the bytes, a processor raises.
        dag = Dag()
        dag.add("chan", nbytes=4.0, duration=NAN)
        simulator = DagSimulator(simple_resources())
        assert getattr(simulator, engine)(dag).makespan == 5.0
        dag.add("cpu", duration=NAN, deps=[0])
        with pytest.raises(SimulationError, match="without a duration"):
            getattr(simulator, engine)(dag)


class TestDeterminism:
    def test_same_dag_same_timing(self):
        dag = Dag()
        for i in range(20):
            deps = [i - 1] if i % 3 == 0 and i else []
            dag.add("chan" if i % 2 else "cpu",
                    nbytes=float(i),
                    duration=0.1 if i % 2 == 0 else None,
                    deps=deps)
        sim = DagSimulator(simple_resources())
        r1, r2 = sim.run(dag), sim.run(dag)
        assert r1.finish == r2.finish


class TestHelpers:
    def test_makespan_helper(self):
        dag = Dag()
        dag.add("chan", nbytes=1.0)
        assert makespan(dag, simple_resources()) == pytest.approx(2.0)

    def test_phase_finish_times(self):
        dag = Dag()
        dag.add("chan", nbytes=1.0, phase=Phase.REDUCE)
        dag.add("chan", nbytes=1.0, phase=Phase.BROADCAST)
        result = DagSimulator(simple_resources()).run(dag)
        windows = phase_windows(dag, result)
        assert windows[Phase.REDUCE][1] < windows[Phase.BROADCAST][1]

    def test_first_finish_of_empty_raises(self):
        dag = Dag()
        dag.add("chan", nbytes=1.0)
        result = DagSimulator(simple_resources()).run(dag)
        with pytest.raises(SimulationError):
            result.first_finish_of([])

    def test_helpers_read_columns_not_rows(self, op_rows):
        # Six 2 s transfers on one channel; odd ops broadcast.
        dag = Dag()
        for i, chunk in enumerate([0, 1, 2, 0, 1, -1]):
            dag.add("chan", nbytes=1.0, chunk=chunk,
                    phase=(Phase.REDUCE, Phase.BROADCAST)[i % 2])
        result = DagSimulator(simple_resources()).run(dag)
        assert result.makespan == 12.0
        assert [rec.finish for rec in result.trace] == [
            2.0, 4.0, 6.0, 8.0, 10.0, 12.0
        ]
        assert utilization(result.trace, "chan", result.makespan) == 1.0
        assert utilization(result.trace, "cpu", result.makespan) == 0
        assert op_rows == []

    def test_run_returns_typed_columns(self):
        dag = Dag()
        dag.add("chan", nbytes=1.0)
        dag.add("cpu", duration=2.0, deps=[0])
        result = DagSimulator(simple_resources()).run(dag)
        assert result.start == array("d", [0.0, 2.0])
        assert result.finish == array("d", [2.0, 4.0])
        assert result.order == array("i", [0, 1])
        empty = DagSimulator(simple_resources()).run(Dag())
        assert (empty.start, empty.finish, empty.order) == (
            array("d"), array("d"), array("i")
        )
