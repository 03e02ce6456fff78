"""Tests for repro.config."""

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    OptimizerConfig,
    RefreshPolicy,
    ServiceConfig,
)
from repro.optimizer import cost_model, selectivity
from repro.stats import cost as stats_cost
from repro.stats.builder import HISTOGRAM_BUCKETS

MAGIC_NUMBERS = [
    name for name in dir(selectivity) if name.startswith("MAGIC_")
]


class TestMagicNumbers:
    def test_defaults_in_unit_interval(self):
        assert len(MAGIC_NUMBERS) == 8
        for name in MAGIC_NUMBERS:
            assert 0.0 < getattr(selectivity, name) <= 1.0, name

    def test_classic_values(self):
        """The System-R lineage the paper alludes to (Sec 4.1)."""
        assert selectivity.MAGIC_RANGE == 0.30
        assert selectivity.MAGIC_EQUALITY == 0.10
        assert selectivity.MAGIC_GROUP_BY_FRACTION == 0.01


class TestCostModelConfig:
    def test_positive_constants(self):
        assert cost_model.IO_PAGE_COST > 0
        assert cost_model.CPU_TUPLE_COST > 0
        assert stats_cost.OPTIMIZER_CALL_COST > 0
        assert stats_cost.STAT_INCREMENTAL_COST_PER_ROW > 0

    def test_incremental_far_below_full_scan(self):
        assert (
            stats_cost.STAT_INCREMENTAL_COST_PER_ROW
            < stats_cost.STAT_SCAN_COST_PER_ROW
        )

    def test_random_io_more_expensive(self):
        assert cost_model.RANDOM_IO_FACTOR > 1.0


class TestOptimizerConfig:
    def test_defaults_paper_faithful(self):
        config = OptimizerConfig()
        assert config.enable_index_paths
        assert config.enable_hash_join
        assert config.enable_merge_join
        # extensions are opt-in (DESIGN.md §5b)
        assert not config.enable_bushy_joins
        assert not config.enable_joint_histograms
        assert not config.enable_histogram_join_estimation
        assert config.sample_rows is None

    def test_default_config_shared_instance(self):
        assert DEFAULT_CONFIG == OptimizerConfig()
        assert HISTOGRAM_BUCKETS == 50


class TestRefreshPolicyConfig:
    def test_default_is_churn_with_feedback_off(self):
        config = ServiceConfig()
        assert config.refresh_policy is RefreshPolicy.CHURN
        assert config.feedback_enabled is False

    def test_policy_accepts_strings(self):
        config = ServiceConfig(
            feedback_enabled=True, refresh_policy="qerror"
        )
        assert config.refresh_policy is RefreshPolicy.QERROR

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(feedback_enabled=True, refresh_policy="psychic")

    def test_non_churn_policy_requires_feedback(self):
        with pytest.raises(ValueError):
            ServiceConfig(refresh_policy="qerror")
        with pytest.raises(ValueError):
            ServiceConfig(refresh_policy=RefreshPolicy.HYBRID)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            ServiceConfig(
                feedback_enabled=True,
                qerror_refresh_threshold=8.0,
                qerror_retune_threshold=4.0,
            )

    @pytest.mark.parametrize(
        "field, value", [("qerror_refresh_threshold", 0.5)]
    )
    def test_bad_feedback_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServiceConfig(feedback_enabled=True, **{field: value})


class TestLearnedConfig:
    def test_default_is_off(self):
        config = ServiceConfig()
        assert config.learned_enabled is False

    def test_learned_requires_feedback(self):
        with pytest.raises(ValueError, match="requires feedback_enabled"):
            ServiceConfig(learned_enabled=True)

    def test_learned_with_feedback_accepted(self):
        config = ServiceConfig(feedback_enabled=True, learned_enabled=True)
        assert config.learned_enabled is True
