"""Every Fig. 13 point against its stored output.

The 30 points are {ZFNet, VGG-16, ResNet-50} x {B, C1, C2, R, CC} x
{low, high bandwidth}, each ``IterationPipeline(net, 64,
CCubeConfig().scaled(bw)).run(strategy)``.  The expected values are the
file the ``sim_fig13`` end-to-end workload checks against; this test
only reads it.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core.config import Bandwidth, CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline
from repro.dnn.networks import NETWORKS

EXPECTED = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "e2e" / "expected" / "sim_fig13.json"
)
FIELDS = ("iteration_time", "comm_total", "turnaround", "bubble_time",
          "ideal_time")
POINTS = [
    (net, strategy, bw)
    for bw in (Bandwidth.LOW, Bandwidth.HIGH)
    for net in ("zfnet", "vgg16", "resnet50")
    for strategy in Strategy
]


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_expected_file_covers_every_point(expected):
    assert sorted(expected) == sorted(
        f"{net}/{strategy.value}/{bw.value}" for net, strategy, bw in POINTS
    )


@pytest.mark.parametrize(
    "net, strategy, bw", POINTS,
    ids=[f"{n}-{s.value}-{b.value}" for n, s, b in POINTS],
)
def test_point_matches_stored_output(expected, net, strategy, bw):
    result = IterationPipeline(
        NETWORKS[net](), 64, CCubeConfig().scaled(bw)
    ).run(strategy)
    want = expected[f"{net}/{strategy.value}/{bw.value}"]
    for field in FIELDS:
        assert math.isclose(
            getattr(result, field), want[field], rel_tol=1e-9, abs_tol=1e-12
        ), field
