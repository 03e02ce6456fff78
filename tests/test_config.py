"""Tests for repro.config."""

import pytest

from repro.config import (
    CostModelConfig,
    DEFAULT_CONFIG,
    MagicNumbers,
    OptimizerConfig,
    RefreshPolicy,
    ServiceConfig,
)


class TestMagicNumbers:
    def test_defaults_in_unit_interval(self):
        magic = MagicNumbers()
        for name in (
            "equality",
            "range_",
            "between",
            "inequality",
            "in_list_per_item",
            "join",
            "group_by_fraction",
            "like",
        ):
            assert 0.0 < getattr(magic, name) <= 1.0

    def test_classic_values(self):
        """The System-R lineage the paper alludes to (Sec 4.1)."""
        magic = MagicNumbers()
        assert magic.range_ == 0.30
        assert magic.equality == 0.10
        assert magic.group_by_fraction == 0.01

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            MagicNumbers(equality=0.0)

    def test_above_one_rejected(self):
        with pytest.raises(ValueError):
            MagicNumbers(join=1.5)

    def test_custom_values_accepted(self):
        assert MagicNumbers(range_=0.5).range_ == 0.5

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MagicNumbers().equality = 0.5


class TestCostModelConfig:
    def test_positive_constants(self):
        cost = CostModelConfig()
        assert cost.io_page_cost > 0
        assert cost.cpu_tuple_cost > 0
        assert cost.optimizer_call_cost > 0
        assert cost.stat_incremental_cost_per_row > 0

    def test_incremental_far_below_full_scan(self):
        cost = CostModelConfig()
        assert (
            cost.stat_incremental_cost_per_row
            < cost.stat_scan_cost_per_row
        )

    def test_random_io_more_expensive(self):
        cost = CostModelConfig()
        assert cost.random_io_factor > 1.0


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
        assert DEFAULT_CONFIG.histogram_buckets == 50

    def test_nested_configs_composed(self):
        config = OptimizerConfig(magic=MagicNumbers(equality=0.2))
        assert config.magic.equality == 0.2
        assert config.cost.io_page_cost == 1.0


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
        "field, value",
        [
            ("feedback_capacity", 0),
            ("qerror_refresh_threshold", 0.5),
        ],
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learned_decay", 0.0),
            ("learned_decay", 1.0),
            ("learned_max_factor", 1.0),
        ],
    )
    def test_bad_learned_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServiceConfig(
                feedback_enabled=True,
                learned_enabled=True,
                **{field: value},
            )
