"""The verifier must catch broken schedules, not just bless good ones."""

from dataclasses import replace

import pytest

from repro.errors import ScheduleError
from repro.collectives.base import CollectiveSchedule
from repro.collectives.chunking import chunk_offsets, split_bytes
from repro.collectives.ring import ring_allreduce
from repro.collectives.tree import tree_allreduce
from repro.collectives.verification import check_allreduce, replay_dataflow
from repro.sim.dag import Dag, Phase
from repro.topology.embedding import edge_key


def broken_schedule() -> CollectiveSchedule:
    """A 3-node 'allreduce' that forgets to involve node 2."""
    dag = Dag()
    a = dag.add(edge_key(0, 1), nbytes=10.0, src=0, dst=1,
                chunk=0, phase=Phase.REDUCE)
    b = dag.add(edge_key(1, 0), nbytes=10.0, src=1, dst=0,
                chunk=0, phase=Phase.BROADCAST, deps=[a])
    sizes = split_bytes(10.0, 1)
    return CollectiveSchedule(
        dag=dag,
        algorithm="broken",
        nnodes=3,
        nbytes=10.0,
        chunk_sizes=sizes,
        chunk_offsets=chunk_offsets(sizes),
        final_ops={0: [b]},
        arrival_ops={(0, 0): b, (1, 0): a},
    )


class TestNegativeCases:
    def test_missing_node_detected(self):
        with pytest.raises(ScheduleError, match="missing contributions"):
            check_allreduce(broken_schedule())

    def test_error_names_the_gap(self):
        with pytest.raises(ScheduleError, match=r"\[2\]"):
            check_allreduce(broken_schedule())

    def test_dropping_broadcast_op_detected(self):
        schedule = tree_allreduce(4, 400.0, nchunks=1)
        dag = schedule.dag
        # Copy all but the final broadcast transfer, the last op: one
        # leaf never gets chunk 0.
        last_bcast = max(
            op.op_id for op in dag.ops if op.phase is Phase.BROADCAST
        )
        assert last_bcast == len(dag) - 1
        truncated = Dag()
        for op in dag.ops[:last_bcast]:
            truncated.add_from(
                dag, op.op_id, op.resource, op.deps, src=op.src, dst=op.dst
            )
        with pytest.raises(ScheduleError):
            check_allreduce(replace(schedule, dag=truncated))

    def test_bad_order_rejected(self):
        schedule = ring_allreduce(3, 300.0)
        with pytest.raises(ScheduleError, match="permutation"):
            check_allreduce(schedule, order=[0, 1])


class TestReplaySemantics:
    def test_initial_state_is_own_contribution(self):
        dag = Dag()
        sizes = split_bytes(4.0, 1)
        schedule = CollectiveSchedule(
            dag=dag, algorithm="noop", nnodes=2, nbytes=4.0,
            chunk_sizes=sizes, chunk_offsets=chunk_offsets(sizes),
            final_ops={0: [0]}, arrival_ops={},
        )
        # final_ops references a nonexistent op, but replay alone is fine.
        state = replay_dataflow(schedule)
        assert state[0][0] == frozenset({0})
        assert state[1][0] == frozenset({1})

    def test_reduce_merges(self):
        dag = Dag()
        dag.add(edge_key(0, 1), nbytes=1.0, src=0, dst=1, chunk=0,
                phase=Phase.REDUCE)
        sizes = split_bytes(1.0, 1)
        schedule = CollectiveSchedule(
            dag=dag, algorithm="m", nnodes=2, nbytes=1.0,
            chunk_sizes=sizes, chunk_offsets=chunk_offsets(sizes),
            final_ops={0: [0]}, arrival_ops={},
        )
        state = replay_dataflow(schedule)
        assert state[1][0] == frozenset({0, 1})

    def test_broadcast_overwrites(self):
        dag = Dag()
        dag.add(edge_key(0, 1), nbytes=1.0, src=0, dst=1, chunk=0,
                phase=Phase.BROADCAST)
        sizes = split_bytes(1.0, 1)
        schedule = CollectiveSchedule(
            dag=dag, algorithm="b", nnodes=2, nbytes=1.0,
            chunk_sizes=sizes, chunk_offsets=chunk_offsets(sizes),
            final_ops={0: [0]}, arrival_ops={},
        )
        state = replay_dataflow(schedule)
        assert state[1][0] == frozenset({0})  # own contribution replaced

    def test_sync_markers_ignored(self):
        dag = Dag()
        dag.add(("sync", 0), duration=0.0, src=1, dst=1, chunk=0,
                phase=Phase.REDUCE)
        sizes = split_bytes(1.0, 1)
        schedule = CollectiveSchedule(
            dag=dag, algorithm="s", nnodes=2, nbytes=1.0,
            chunk_sizes=sizes, chunk_offsets=chunk_offsets(sizes),
            final_ops={0: [0]}, arrival_ops={},
        )
        state = replay_dataflow(schedule)
        assert state[1][0] == frozenset({1})


class TestScheduleValidate:
    def test_chunk_size_mismatch_detected(self):
        schedule = ring_allreduce(3, 300.0)
        schedule.chunk_sizes[0] += 5.0
        with pytest.raises(ScheduleError, match="sum"):
            schedule.validate()

    def test_missing_final_ops_detected(self):
        schedule = ring_allreduce(3, 300.0)
        del schedule.final_ops[0]
        with pytest.raises(ScheduleError, match="final ops"):
            schedule.validate()
