"""Unit tests for trace analysis helpers."""

from repro.sim.trace import TraceRecord, overlapping_pairs, utilization


def rec(op_id, resource, start, finish):
    return TraceRecord(op_id=op_id, resource=resource, start=start,
                       finish=finish)


class TestOverlappingPairs:
    def test_disjoint_is_clean(self):
        trace = [rec(0, "a", 0, 1), rec(1, "a", 1, 2)]
        assert overlapping_pairs(trace) == []

    def test_overlap_on_same_resource_detected(self):
        trace = [rec(0, "a", 0, 2), rec(1, "a", 1, 3)]
        assert len(overlapping_pairs(trace)) == 1

    def test_overlap_on_different_resources_ok(self):
        trace = [rec(0, "a", 0, 2), rec(1, "b", 1, 3)]
        assert overlapping_pairs(trace) == []

    def test_touching_endpoints_not_overlap(self):
        trace = [rec(0, "a", 0, 1.0), rec(1, "a", 1.0, 2.0)]
        assert overlapping_pairs(trace) == []


class TestUtilization:
    def test_full_utilization(self):
        assert utilization([rec(0, "a", 0, 4)], "a", 4.0) == 1.0

    def test_half_utilization(self):
        assert utilization([rec(0, "a", 0, 2)], "a", 4.0) == 0.5

    def test_zero_horizon(self):
        assert utilization([rec(0, "a", 0, 2)], "a", 0.0) == 0.0
