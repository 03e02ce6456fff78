"""repro — reproduction of *Automating Statistics Management for Query
Optimizers* (Chaudhuri & Narasayya, ICDE 2000).

Quickstart::

    from repro import (
        make_tpcd_database, Optimizer, OptimizationRequest, PlanCache,
        Executor, mnsa_for_query, candidate_statistics, parse_and_bind,
    )

    db = make_tpcd_database(scale=0.005, z=2.0)
    optimizer = Optimizer(db, cache=PlanCache())
    backend = MemoryBackend(db, optimizer)
    query = parse_and_bind("SELECT ... FROM ...", db.schema)
    result = mnsa_for_query(backend, query)   # builds what matters
    plan = optimizer.optimize_request(OptimizationRequest(query))

See README.md for the architecture overview and DESIGN.md for the mapping
from paper sections to modules.
"""

from repro.backends import (
    BACKEND_NAMES,
    Backend,
    MemoryBackend,
    SqliteBackend,
    backend_from_name,
)
from repro.catalog import (
    Column,
    ColumnRef,
    ColumnType,
    ForeignKey,
    Schema,
    TableSchema,
)
from repro.config import (
    CostModelConfig,
    DEFAULT_CONFIG,
    MagicNumbers,
    OptimizerConfig,
    RefreshPolicy,
    ServiceConfig,
)
from repro.core import (
    AgingPolicy,
    AutoDropPolicy,
    CandidateMode,
    CreationPolicy,
    EquivalenceCriterion,
    ExecutionTreeEquivalence,
    MnsaConfig,
    MnsaResult,
    MnsadResult,
    OptimizerCostEquivalence,
    ShrinkingSetResult,
    StatisticsAdvisor,
    TOptimizerCostEquivalence,
    WorkloadDriver,
    candidate_statistics,
    find_minimal_essential_set,
    find_next_stat_to_build,
    is_essential_set,
    mnsa_for_query,
    mnsa_for_workload,
    mnsad_for_query,
    mnsad_for_workload,
    shrinking_set,
    workload_candidate_statistics,
)
from repro.errors import ReproError, ServiceRejectedError
from repro.datagen import (
    SkewSpec,
    TpcdGenerator,
    make_tpcd_database,
    tpcd_schema,
)
from repro.executor import ExecutionResult, Executor
from repro.feedback import (
    FeedbackKey,
    FeedbackPolicy,
    FeedbackStore,
    OperatorObservation,
    PlanInstrumenter,
    QErrorTracker,
    q_error,
    worst_plan_q_error,
)
from repro.index import apply_tuned_tpcd_indexes
from repro.learned import (
    BucketRegressor,
    CorrectionModel,
    CorrectionStore,
    MultiplicativeCorrection,
    SketchJoinEstimator,
)
from repro.optimizer import (
    OptimizationRequest,
    OptimizationResult,
    Optimizer,
    PlanCache,
    plan_signature,
)
from repro.service import (
    CaptureLog,
    MetricsRegistry,
    QueryEvent,
    ServiceRequest,
    ServiceResponse,
    Session,
    StalenessMonitor,
    StatsService,
)
from repro.sql import Query, QueryBuilder, bind, parse_statement
from repro.sql.binder import parse_and_bind
from repro.stats import ShardRouter, StatKey, Statistic, StatisticsManager
from repro.storage import Database
from repro.workload import (
    RagsConfig,
    Workload,
    generate_workload,
    tpcd_queries,
)

__version__ = "1.0.0"

__all__ = [
    # engine backends
    "BACKEND_NAMES",
    "Backend",
    "MemoryBackend",
    "SqliteBackend",
    "backend_from_name",
    # catalog / storage
    "Column",
    "ColumnRef",
    "ColumnType",
    "ForeignKey",
    "Schema",
    "TableSchema",
    "Database",
    # config
    "MagicNumbers",
    "CostModelConfig",
    "OptimizerConfig",
    "ServiceConfig",
    "RefreshPolicy",
    "DEFAULT_CONFIG",
    # data generation
    "SkewSpec",
    "TpcdGenerator",
    "make_tpcd_database",
    "tpcd_schema",
    # sql
    "Query",
    "QueryBuilder",
    "parse_statement",
    "bind",
    "parse_and_bind",
    # statistics
    "StatKey",
    "Statistic",
    "StatisticsManager",
    # optimizer / executor
    "Optimizer",
    "OptimizationRequest",
    "OptimizationResult",
    "PlanCache",
    "plan_signature",
    "Executor",
    "ExecutionResult",
    # execution feedback
    "q_error",
    "worst_plan_q_error",
    "FeedbackKey",
    "FeedbackPolicy",
    "FeedbackStore",
    "OperatorObservation",
    "PlanInstrumenter",
    "QErrorTracker",
    # learned corrections
    "BucketRegressor",
    "CorrectionModel",
    "CorrectionStore",
    "MultiplicativeCorrection",
    "SketchJoinEstimator",
    # indexes
    "apply_tuned_tpcd_indexes",
    # core algorithms
    "CandidateMode",
    "candidate_statistics",
    "workload_candidate_statistics",
    "EquivalenceCriterion",
    "ExecutionTreeEquivalence",
    "OptimizerCostEquivalence",
    "TOptimizerCostEquivalence",
    "is_essential_set",
    "find_minimal_essential_set",
    "find_next_stat_to_build",
    "MnsaConfig",
    "MnsaResult",
    "mnsa_for_query",
    "mnsa_for_workload",
    "MnsadResult",
    "mnsad_for_query",
    "mnsad_for_workload",
    "ShrinkingSetResult",
    "shrinking_set",
    "AgingPolicy",
    "AutoDropPolicy",
    "CreationPolicy",
    "StatisticsAdvisor",
    "WorkloadDriver",
    # errors
    "ReproError",
    "ServiceRejectedError",
    # online service
    "StatsService",
    "Session",
    "ServiceRequest",
    "ServiceResponse",
    "ShardRouter",
    "CaptureLog",
    "QueryEvent",
    "StalenessMonitor",
    "MetricsRegistry",
    # workloads
    "Workload",
    "RagsConfig",
    "generate_workload",
    "tpcd_queries",
]
