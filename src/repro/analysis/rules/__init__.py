"""Built-in lint rules.  Importing this package registers all of them
with :data:`repro.analysis.framework.RULES`."""

from repro.analysis.rules.guarded_by import GuardedByRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.dispatch import ExhaustiveDispatchRule
from repro.analysis.rules.blocking import NoBlockingUnderLockRule
from repro.analysis.rules.literals import MagicLiteralRule
from repro.analysis.rules.epoch import EpochBumpRule
from repro.analysis.rules.metrics_registry import MetricsRegistryRule
from repro.analysis.rules.plan_state import PlanStateRule
from repro.analysis.rules.escape import GuardedEscapeRule
from repro.analysis.rules.check_then_act import CheckThenActRule
from repro.analysis.rules.shard_order import ShardLockOrderRule

__all__ = [
    "GuardedByRule",
    "LockOrderRule",
    "ExhaustiveDispatchRule",
    "NoBlockingUnderLockRule",
    "MagicLiteralRule",
    "EpochBumpRule",
    "MetricsRegistryRule",
    "PlanStateRule",
    "GuardedEscapeRule",
    "CheckThenActRule",
    "ShardLockOrderRule",
]
