"""Unit tests for channel and processor resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.dag import Op
from repro.sim.resources import Channel, Processor


class TestChannel:
    def test_transfer_time_alpha_beta(self):
        chan = Channel(alpha=2.0, beta=0.5)
        assert chan.transfer_time(10.0) == pytest.approx(7.0)

    def test_zero_bytes_costs_alpha(self):
        assert Channel(alpha=3.0, beta=1.0).transfer_time(0.0) == 3.0

    def test_bandwidth_property(self):
        assert Channel(alpha=0.0, beta=0.25).bandwidth == pytest.approx(4.0)

    def test_zero_beta_infinite_bandwidth(self):
        assert Channel(alpha=0.0, beta=0.0).bandwidth == float("inf")

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            Channel(alpha=1.0, beta=1.0).transfer_time(-1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(SimulationError):
            Channel(alpha=-1.0, beta=1.0)

    def test_service_time_uses_nbytes(self):
        chan = Channel(alpha=1.0, beta=2.0)
        op = Op(op_id=0, resource="c", nbytes=3.0)
        assert chan.service_time(op) == pytest.approx(7.0)

    def test_service_time_prefers_explicit_duration(self):
        chan = Channel(alpha=1.0, beta=2.0)
        op = Op(op_id=0, resource="c", nbytes=3.0, duration=0.25)
        assert chan.service_time(op) == 0.25


class TestProcessor:
    def test_duration_passthrough(self):
        op = Op(op_id=0, resource="p", duration=4.0)
        assert Processor().service_time(op) == 4.0

    def test_missing_duration_rejected(self):
        op = Op(op_id=0, resource="p")
        with pytest.raises(SimulationError):
            Processor().service_time(op)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("alpha, beta", [
        (NAN, 1.0), (INF, 1.0), (1.0, NAN), (1.0, INF),
    ])
    def test_channel_parameters_must_be_finite(self, alpha, beta):
        with pytest.raises(SimulationError, match="finite"):
            Channel(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("nbytes", [NAN, INF])
    def test_channel_rejects_non_finite_size(self, nbytes):
        op = Op(op_id=0, resource="c", nbytes=nbytes)
        with pytest.raises(SimulationError, match="finite"):
            Channel(alpha=1.0, beta=1.0).service_time(op)

    @pytest.mark.parametrize("resource", [
        Channel(alpha=1.0, beta=1.0), Processor(),
    ])
    @pytest.mark.parametrize("duration", [INF, -INF, NAN])
    def test_non_finite_duration_rejected(self, resource, duration):
        op = Op(op_id=0, resource="r", duration=duration)
        with pytest.raises(SimulationError, match="non-finite"):
            resource.service_time(op)
