"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to discriminate the usual failure
modes (bad schema, bad SQL, missing statistics, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CatalogError(ReproError):
    """A schema or catalog object is missing, duplicated, or malformed."""


class StorageError(ReproError):
    """A table's stored data is inconsistent with its schema."""


class DataGenerationError(ReproError):
    """Invalid parameters were passed to the data generator."""


class SqlError(ReproError):
    """Base class for SQL front-end failures."""


class SqlLexError(SqlError):
    """The SQL text contains a character sequence that cannot be tokenized."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SqlParseError(SqlError):
    """The token stream does not form a query in the supported subset."""


class SqlBindError(SqlError):
    """A parsed query references tables or columns not in the catalog."""


class StatisticsError(ReproError):
    """A statistic could not be built, found, or updated."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan for a query."""


class ExecutionError(ReproError):
    """A physical plan failed while being executed."""


class WorkloadError(ReproError):
    """Invalid workload specification or generation parameters."""


class PolicyError(ReproError):
    """A statistics-management policy was configured inconsistently."""


class ServiceError(ReproError):
    """The statistics-management service was misused or misconfigured."""


class ServiceRejectedError(ServiceError):
    """The service refused a request under load (admission control).

    Raised on the submit path when the admission queue is past its
    high-water mark or the session exceeded its rate limit.  Carries a
    ``retry_after`` hint in seconds: the client should back off at least
    that long before resubmitting.

    Attributes:
        retry_after: suggested client back-off in seconds (> 0).
        reason: short machine-readable cause (``"queue_full"`` or
            ``"rate_limited"``).
    """

    def __init__(self, message: str, retry_after: float, reason: str) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.reason = reason
