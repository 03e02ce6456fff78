"""Plan execution over stored data, with actual-cost scoring.

The executor compiles a physical plan once into a column layout and runs
it bottom-up using vectorized numpy operators, and — the part the
experiments depend on — re-applies the
optimizer's cost formulas to the *actual* cardinalities observed at each
operator.  The resulting ``actual_cost`` is the paper's "execution cost"
(DESIGN.md §2): a plan picked from bad estimates pays its true price.

Public API::

    from repro.executor import Executor, ExecutionResult, Relation
"""

from repro.executor.relation import Relation
from repro.executor.executor import ExecutionResult, Executor

__all__ = ["Relation", "Executor", "ExecutionResult"]
