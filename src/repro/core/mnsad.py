"""MNSA with Drop — MNSA/D (paper Sec 5.1).

A simple adaptation of Figure 1: after creating statistic(s) *s* (step 10)
and recomputing the default plan (step 11), compare the new plan tree with
the previous one.  If the plan is unchanged, *s* is heuristically
non-essential and goes onto the drop-list.  This is
:func:`~repro.core.mnsa.figure1` with its drop step on; the workload
driver is MNSA's :func:`~repro.core.mnsa.tune_workload`.

Per the paper, MNSA/D is *erroneously aggressive*: a statistic g may be
dropped because S and S ∪ {g} give the same plan even though S ∪ {g, h}
would differ — and greedy inclusion means retained statistics are never
reconsidered.  Both behaviours are preserved faithfully here.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.backends.base import Backend
from repro.core.mnsa import MnsaConfig, MnsaResult, figure1, tune_workload
from repro.sql.query import Query
from repro.stats.statistic import StatKey


def mnsad_for_query(
    backend: Backend,
    query: Query,
    candidates: Optional[Sequence[StatKey]] = None,
    config: MnsaConfig = MnsaConfig(),
    feedback=None,
) -> MnsaResult:
    """Run MNSA/D for one query against ``backend``."""
    return figure1(backend, query, candidates, config, feedback, drop=True)


def mnsad_for_workload(
    backend: Backend,
    queries: Iterable[Query],
    config: MnsaConfig = MnsaConfig(),
) -> MnsaResult:
    """Run MNSA/D over a workload, query by query (:func:`tune_workload`)."""
    return tune_workload(
        backend,
        queries,
        config,
        lambda query: mnsad_for_query(backend, query, config=config),
    )
