"""Aging on the served path (paper Sec 6).

A statistic the maintenance pass dropped is not re-created by the
advisor step inside the aging window, and is re-created after it — also
when the verdict ledger settled the query's analyses inside the window:
the candidates aging withheld are part of the verdict key.
"""

from repro.service import ServiceRequest
from repro.sql.binder import parse_and_bind
from repro.stats.statistic import StatKey

from tests.util import make_service

WINDOW = 6
QUERY = (
    "SELECT e.age, d.dname FROM emp e, dept d "
    "WHERE e.dept_id = d.id AND e.age = 30"
)
CHURN = "UPDATE emp SET age = 50"
EMP_STATS = {StatKey("emp", ("age",)), StatKey("emp", ("dept_id",))}


def _aging_service(db):
    return make_service(
        db,
        creation_policy="syntactic",
        staleness_fraction=0.01,
        drop_after_refreshes=1,
        drop_list_only=False,
        aging_window=WINDOW,
    )


def _submit(service, db, sql):
    service.submit(ServiceRequest(parse_and_bind(sql, db.schema)))
    assert service.drain(timeout=30.0)


def _drop_emp_statistics(service, db):
    """Create the query's statistics, then churn ``emp`` until the drop
    rule removes its two; returns the clock at the drop."""
    (shard,) = service.shards
    _submit(service, db, QUERY)
    assert EMP_STATS <= set(db.stats.keys())
    while EMP_STATS & set(db.stats.keys()):
        _submit(service, db, CHURN)
        shard.monitor.run_once()
    assert set(service.aging.recently_dropped()) == EMP_STATS
    return service.aging.now


def test_dropped_statistic_returns_only_after_the_window(db):
    with _aging_service(db) as service:
        dropped_at = _drop_emp_statistics(service, db)
        while service.aging.now + 1 - dropped_at < WINDOW:
            _submit(service, db, QUERY)
            assert not EMP_STATS & set(db.stats.keys()), service.aging.now
        _submit(service, db, QUERY)
        assert EMP_STATS <= set(db.stats.visible_keys())
    assert service.metrics.counter("monitor.dropped") == len(EMP_STATS)


def test_a_settled_query_is_analysed_again_once_the_window_closes(db):
    with _aging_service(db) as service:
        dropped_at = _drop_emp_statistics(service, db)
        settled = service.metrics.counter("advisor.settled")
        while service.aging.now + 1 - dropped_at < WINDOW:
            _submit(service, db, QUERY)
        # the same query on the same statistics and data: the first
        # analysis inside the window was recorded, the rest settled
        assert service.metrics.counter("advisor.settled") > settled
        _submit(service, db, QUERY)
        assert EMP_STATS <= set(db.stats.visible_keys())
