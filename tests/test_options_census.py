"""Snapshot of every value a caller can set: the config fields and the
CLI options.

Each settable value is a fork in the program that someone has to test and
document.  Adding one must be deliberate — update the snapshot here in the
same change, so the new knob shows up in review as an edit to this file.
"""

import argparse
import dataclasses

from repro.cli import build_parser
from repro.config import OptimizerConfig, ServiceConfig

OPTIMIZER_FIELDS = [
    "sample_rows",
    "enable_index_paths",
    "enable_merge_join",
    "enable_hash_join",
    "enable_bushy_joins",
    "enable_joint_histograms",
    "joint_histogram_cells",
    "enable_histogram_join_estimation",
]

SERVICE_FIELDS = [
    "capture_capacity",
    "advisor_workers",
    "advisor_batch_size",
    "advisor_poll_seconds",
    "creation_policy",
    "staleness_fraction",
    "staleness_poll_seconds",
    "refresh_budget_per_cycle",
    "purge_drop_list_before_refresh",
    "drop_after_refreshes",
    "drop_list_only",
    "aging_window",
    "aging_expensive_query_cost",
    "incremental_maintenance",
    "execute_queries",
    "plan_cache_size",
    "feedback_enabled",
    "refresh_policy",
    "qerror_refresh_threshold",
    "qerror_retune_threshold",
    "learned_enabled",
    "shards",
    "service_workers",
    "queue_capacity",
    "session_rate_limit",
    "session_rate_burst",
    "degraded_backlog_high",
    "degraded_backlog_low",
    "backend",
]

#: per subcommand, each argument's first option string (a positional's
#: name), in declaration order; ``-h`` is left out
CLI_OPTIONS = {
    "generate": ["--scale", "--z", "--seed", "--out"],
    "query": ["--db", "sql", "--limit", "--explain"],
    "workload": ["--db", "--name", "--seed", "--out"],
    "tune": ["--db", "--workload", "--mode", "--t", "--cache-size", "--backend"],
    "serve": [
        "--db",
        "--scale",
        "--z",
        "--seed",
        "--workload",
        "--workers",
        "--shards",
        "--clients",
        "--policy",
        "--capture",
        "--refresh-fraction",
        "--refresh-budget",
        "--no-execute",
        "--cache-size",
        "--feedback",
        "--refresh-policy",
        "--qerror-refresh-threshold",
        "--qerror-retune-threshold",
        "--learned",
        "--backend",
    ],
    "feedback": [
        "--db",
        "--scale",
        "--z",
        "--seed",
        "--workload",
        "--threshold",
        "--top",
        "--learned",
    ],
    "experiment": ["names", "--scale", "--z", "--queries"],
    "lint": [
        "paths",
        "--rules",
        "--changed",
        "--exclude",
        "--format",
        "--cache",
        "--fix",
        "--fix-unsafe",
        "--baseline",
        "--update-baseline",
        "--list-rules",
    ],
}


def _field_names(config_class):
    return [field.name for field in dataclasses.fields(config_class)]


def _cli_options():
    parser = build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: [
            action.option_strings[0] if action.option_strings else action.dest
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, command in commands.choices.items()
    }


class TestOptionsCensus:
    def test_optimizer_config_fields(self):
        assert _field_names(OptimizerConfig) == OPTIMIZER_FIELDS

    def test_service_config_fields(self):
        assert _field_names(ServiceConfig) == SERVICE_FIELDS

    def test_cli_options(self):
        assert _cli_options() == CLI_OPTIONS
