"""Snapshot test of the curated public API surface.

``repro.__all__`` is a contract: adding a name means committing to it,
removing one is a breaking change.  Either direction must be deliberate —
update ``EXPECTED`` here in the same change that migrates every caller.
"""

import repro

EXPECTED = [
    "AgingPolicy",
    "BACKEND_NAMES",
    "Backend",
    "CandidateMode",
    "CaptureLog",
    "Column",
    "ColumnRef",
    "ColumnType",
    "DEFAULT_CONFIG",
    "Database",
    "EquivalenceCriterion",
    "ExecutionResult",
    "ExecutionTreeEquivalence",
    "Executor",
    "FeedbackKey",
    "FeedbackPolicy",
    "FeedbackStore",
    "ForeignKey",
    "LockStepAdvisor",
    "MemoryBackend",
    "MetricsRegistry",
    "MnsaConfig",
    "MnsaResult",
    "OperatorObservation",
    "OptimizationRequest",
    "OptimizationResult",
    "Optimizer",
    "OptimizerConfig",
    "OptimizerCostEquivalence",
    "PlanCache",
    "PlanInstrumenter",
    "QErrorTracker",
    "Query",
    "QueryBuilder",
    "QueryEvent",
    "RagsConfig",
    "RefreshPolicy",
    "ReproError",
    "Schema",
    "ServiceConfig",
    "ServiceRejectedError",
    "ServiceRequest",
    "ServiceResponse",
    "Session",
    "ShardRouter",
    "ShrinkingSetResult",
    "SkewSpec",
    "SqliteBackend",
    "StalenessMonitor",
    "StatKey",
    "Statistic",
    "StatisticsManager",
    "StatsService",
    "TOptimizerCostEquivalence",
    "TableSchema",
    "TpcdGenerator",
    "Workload",
    "apply_tuned_tpcd_indexes",
    "backend_from_name",
    "bind",
    "candidate_statistics",
    "find_minimal_essential_set",
    "find_next_stat_to_build",
    "generate_workload",
    "is_essential_set",
    "make_tpcd_database",
    "mnsa_for_query",
    "mnsa_for_workload",
    "mnsad_for_query",
    "mnsad_for_workload",
    "parse_and_bind",
    "parse_statement",
    "plan_signature",
    "q_error",
    "shrinking_set",
    "tpcd_queries",
    "tpcd_schema",
    "workload_candidate_statistics",
    "worst_plan_q_error",
]


class TestApiSurface:
    def test_all_matches_snapshot(self):
        actual = sorted(repro.__all__)
        added = sorted(set(actual) - set(EXPECTED))
        removed = sorted(set(EXPECTED) - set(actual))
        assert actual == EXPECTED, (
            f"public API drifted: added={added} removed={removed}; "
            "update tests/test_api_surface.py deliberately"
        )

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_star_import_is_exactly_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        exported = {k for k in namespace if not k.startswith("__")}
        assert exported == set(repro.__all__)
