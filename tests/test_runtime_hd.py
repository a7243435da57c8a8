"""Input validation for halving-doubling AllReduce run through the plan
interpreter."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.plan import PlanInterpreter, build_halving_doubling_plan
from repro.runtime.sync import SpinConfig

FAST = SpinConfig(timeout=15.0)


def hd_interpreter(nnodes, total_elems):
    plan = build_halving_doubling_plan(nnodes, float(total_elems * 8))
    return PlanInterpreter(plan, total_elems=total_elems, spin=FAST)


class TestValidation:
    def test_wrong_input_count(self):
        with pytest.raises(ConfigError):
            hd_interpreter(4, 16).run([np.zeros(16)] * 3)

    def test_wrong_input_size(self):
        with pytest.raises(ConfigError):
            hd_interpreter(4, 16).run([np.zeros(8)] * 4)
