"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from typing import Callable, Iterable, List

from repro.datagen import make_tpcd_database
from repro.executor import Executor
from repro.optimizer import Optimizer
from repro.sql.query import Query

#: The paper's four experiment databases (Sec 8.1).
DATABASE_SPECS = (
    ("TPCD_0", 0.0),
    ("TPCD_2", 2.0),
    ("TPCD_4", 4.0),
    ("TPCD_MIX", "mix"),
)


def default_database_factory(
    scale: float = 0.002, seed: int = 42
) -> Callable[[object], object]:
    """A factory building fresh skewed TPC-D databases.

    Experiments need *fresh* databases per experimental arm because
    statistics accumulate; the factory closes over scale and seed so that
    both arms see identical data.
    """

    def build(z):
        return make_tpcd_database(scale=scale, z=z, seed=seed)

    return build


def workload_execution_cost(database, queries: Iterable[Query]) -> float:
    """Total actual cost of optimizing and executing ``queries``.

    This is the experiments' "execution cost of the workload": each query
    is optimized against the database's current statistics and its chosen
    plan is executed for real (DESIGN.md §2).
    """
    optimizer = Optimizer(database)
    executor = Executor(database)
    total = 0.0
    for query in queries:
        result = optimizer.optimize(query)
        total += executor.execute(result.plan, query).actual_cost
    return total


def percent_reduction(baseline: float, improved: float) -> float:
    """``100 * (1 - improved / baseline)``, guarded against zero."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (1.0 - improved / baseline)


def percent_increase(baseline: float, changed: float) -> float:
    """``100 * (changed - baseline) / baseline``, guarded against zero."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (changed - baseline) / baseline


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """A markdown table, columns padded to their widest cell."""
    table = [[str(cell) for cell in row] for row in [headers, *rows]]
    widths = [max(3, *(len(row[i]) for row in table)) for i in range(len(headers))]

    def fmt(row):
        return "| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |"

    lines = [fmt(table[0]), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in table[1:])
    return "\n".join(lines)
