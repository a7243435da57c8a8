"""Tests for strategy autotuning."""

import pytest

from repro.errors import ConfigError
from repro.core.autotune import choose_strategy
from repro.core.config import Strategy


class TestChooseStrategy:
    def test_ccube_wins_typical_config(self, tiny_network, small_config):
        choice = choose_strategy(tiny_network, 64, config=small_config)
        assert choice.best is Strategy.CCUBE

    def test_speedup_at_least_one(self, tiny_network, small_config):
        choice = choose_strategy(tiny_network, 64, config=small_config)
        assert choice.speedup_over_baseline >= 1.0

    def test_all_candidates_evaluated(self, tiny_network, small_config):
        choice = choose_strategy(tiny_network, 16, config=small_config)
        assert set(choice.results) == set(Strategy)

    def test_restricted_candidates(self, tiny_network, small_config):
        choice = choose_strategy(
            tiny_network, 64, config=small_config,
            candidates=(Strategy.BASELINE, Strategy.RING),
        )
        assert choice.best in (Strategy.BASELINE, Strategy.RING)

    def test_empty_candidates_rejected(self, tiny_network, small_config):
        with pytest.raises(ConfigError):
            choose_strategy(tiny_network, 64, config=small_config,
                            candidates=())

