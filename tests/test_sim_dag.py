"""Unit tests for repro.sim.dag."""

from array import array

import pytest

from repro.errors import ScheduleError
from repro.sim.dag import Dag, Label, Op, Phase


def chain(n: int) -> Dag:
    dag = Dag()
    prev = None
    for _ in range(n):
        prev = dag.add("r", nbytes=1.0, deps=[] if prev is None else [prev])
    return dag


class TestDagBuilding:
    def test_add_returns_sequential_ids(self):
        dag = Dag()
        assert dag.add("a") == 0
        assert dag.add("b") == 1
        assert dag.add("a", deps=[0, 1]) == 2

    def test_len_and_iter(self):
        dag = chain(5)
        assert len(dag) == 5
        assert [op.op_id for op in dag] == [0, 1, 2, 3, 4]

    def test_getitem_returns_matching_op(self):
        dag = chain(3)
        assert dag[1].op_id == 1

    def test_add_records_metadata(self):
        dag = Dag()
        op_id = dag.add(
            "chan", nbytes=7.0, src=1, dst=2, chunk=3,
            phase=Phase.REDUCE, tree=1, layer=4, label="x",
        )
        op = dag[op_id]
        assert (op.nbytes, op.src, op.dst, op.chunk) == (7.0, 1, 2, 3)
        assert op.phase is Phase.REDUCE
        assert (op.tree, op.layer, op.label) == (1, 4, "x")

    def test_ops_default_to_no_deps(self):
        dag = Dag()
        dag.add("a")
        assert dag[0].deps == ()


class TestDagValidation:
    def test_valid_chain_passes(self):
        chain(10).validate()

    def test_dangling_dep_rejected(self):
        dag = Dag()
        dag.add("a")
        dag.set_deps({0: [5]})
        with pytest.raises(ScheduleError, match="missing op"):
            dag.validate()

    def test_self_dep_rejected(self):
        dag = Dag()
        dag.add("a")
        dag.set_deps({0: [0]})
        with pytest.raises(ScheduleError, match="itself"):
            dag.validate()

    def test_cycle_rejected(self):
        dag = Dag()
        dag.add("a")
        dag.add("a", deps=[0])
        dag.set_deps({0: [1]})
        with pytest.raises(ScheduleError, match="cycle"):
            dag.validate()

    def test_empty_dag_is_valid(self):
        Dag().validate()


class TestTopologicalOrder:
    def test_chain_order_is_sequential(self):
        order = chain(6).topological_order()
        assert order == sorted(order, key=order.index)
        position = {op: i for i, op in enumerate(order)}
        for i in range(1, 6):
            assert position[i - 1] < position[i]

    def test_diamond_respects_deps(self):
        dag = Dag()
        a = dag.add("r")
        b = dag.add("r", deps=[a])
        c = dag.add("r", deps=[a])
        d = dag.add("r", deps=[b, c])
        position = {op: i for i, op in enumerate(dag.topological_order())}
        assert position[a] < position[b] < position[d]
        assert position[a] < position[c] < position[d]

    def test_all_ops_included(self):
        dag = chain(7)
        assert sorted(dag.topological_order()) == list(range(7))


class TestDagQueries:
    def test_resources_collects_distinct_keys(self):
        dag = Dag()
        dag.add("a")
        dag.add("b")
        dag.add("a")
        assert dag.resources() == {"a", "b"}


class TestColumnStore:
    def test_rows_round_trip_every_field(self):
        dag = Dag()
        dag.add("a")
        dag.add(
            ("chan", 1, 2, 0), nbytes=7, duration=0.5, deps=[0], src=1,
            dst=2, chunk=3, chunk_set=[3, 5], phase=Phase.BROADCAST,
            tree=1, layer=4, label="x",
        )
        assert dag[1] == Op(
            op_id=1, resource=("chan", 1, 2, 0), nbytes=7.0, duration=0.5,
            deps=(0,), src=1, dst=2, chunk=3, chunk_set=(3, 5),
            phase=Phase.BROADCAST, tree=1, layer=4, label="x",
        )
        assert dag[0] == Op(op_id=0, resource="a")
        assert dag[0].duration is None

    def test_only_ops_with_them_store_chunk_sets_and_labels(self):
        dag = Dag()
        dag.add("a")
        dag.add("a", chunk_set=(1, 2), label="y")
        dag.add("a", label=Label.UP)
        assert dag.chunk_sets == {1: (1, 2)}
        assert dag.labels == {1: "y"}

    def test_label_templates_format_from_fields(self):
        dag = Dag()
        fields = dict(src=4, dst=2, chunk=3, tree=1)
        for label in Label:
            dag.add("r", label=label, **fields)
        assert [op.label for op in dag] == [
            "", "up c3 4->2", "down c3 4->2", "reduced c3@4",
            "phase barrier t1", "hop4->2", "forward@gpu2",
        ]

    def test_ops_is_the_dag_and_supports_slices(self):
        dag = chain(4)
        assert dag.ops is dag
        assert [op.op_id for op in dag.ops[1:3]] == [1, 2]
        assert dag.ops[-1].op_id == 3
        with pytest.raises(IndexError):
            dag.ops[4]

    def test_set_deps_rewrites_several_ops_at_once(self):
        dag = chain(4)
        dag.set_deps({1: [], 3: [0, 2]})
        assert [op.deps for op in dag] == [(), (), (1,), (0, 2)]

    def test_resources_iterate_like_a_set_of_rows(self):
        dag = Dag()
        keys = [("chan", i % 7, i % 5, i % 2) for i in range(60)]
        for key in keys:
            dag.add(key)
        assert list(dag.resources()) == list({op.resource for op in dag})

    def test_remap_resources(self):
        dag = Dag()
        dag.add(("e", 1))
        dag.add(("e", 0), deps=[0])
        assert dag.remap_resources(lambda key: key) is dag
        folded = dag.remap_resources(lambda key: ("e", 0))
        assert folded.keys == [("e", 0)]
        assert [op.resource for op in folded] == [("e", 0), ("e", 0)]
        assert folded[1].deps == (0,)
        assert dag[0].resource == ("e", 1)

    def test_forward_deps_are_valid_when_acyclic(self):
        dag = Dag()
        dag.add("a")
        dag.add("a")
        dag.set_deps({0: [1]})
        dag.validate()
        assert dag.topological_order() == [1, 0]

    def test_children_are_csr_arrays(self):
        dag = Dag()
        a = dag.add("a")
        b = dag.add("a", deps=[a])
        dag.add("a", deps=[a, b, a])  # a listed twice: its child twice
        offsets, ids = dag.children()
        assert offsets == array("i", [0, 3, 4, 4])
        assert ids == array("i", [1, 2, 2, 2])
        empty = Dag().children()
        assert empty == (array("i", [0]), array("i"))
