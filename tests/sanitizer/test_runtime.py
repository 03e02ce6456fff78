"""The lockset sanitizer catches seeded violations and stays silent on
correctly locked code."""

import threading

import pytest

from repro.concurrency import guarded_by
from repro.feedback import FeedbackStore
from repro.sanitizer import runtime


@pytest.fixture(autouse=True)
def _isolated_order_graph():
    """Snapshot and restore the process-wide order graph so these tests
    neither inherit nor leak edges (the graph is global on purpose: a
    real run accumulates order evidence across the whole session)."""
    state = runtime._STATE
    saved = (
        {a: set(b) for a, b in state.order.items()},
        {a: set(b) for a, b in state.static_order.items()},
        dict(state.canonical),
    )
    state.order = {}
    state.static_order = {}
    yield
    state.order, state.static_order, canonical = saved
    state.canonical = canonical
    runtime.drain()


def make_box():
    class Box:
        _items = guarded_by("_lock")
        _columns = guarded_by("_lock", mutations_only=True)

        def __init__(self):
            self._lock = threading.Lock()
            self._items = []
            self._columns = {}

        def locked_append(self, value):
            with self._lock:
                self._items.append(value)

        def unguarded_append(self, value):
            self._items.append(value)  # seeded violation

        def read_columns(self):
            return self._columns  # mutations_only: lock-free read is fine

        def unguarded_swap_columns(self):
            self._columns = {}  # seeded violation (write needs the lock)

    assert runtime.sanitize_class(Box)
    assert not runtime.sanitize_class(Box)  # idempotent
    return Box()


def test_catches_seeded_unguarded_write():
    box = make_box()
    with runtime.enforcing():
        box.unguarded_append(1)
        violations = runtime.drain()
    assert len(violations) == 1
    assert violations[0].kind == "unguarded-read"
    assert "Box._items" in violations[0].message
    assert "_lock" in violations[0].message


def test_locked_access_is_clean():
    box = make_box()
    with runtime.enforcing():
        box.locked_append(1)
        assert runtime.drain() == []


def test_mutations_only_allows_reads_flags_writes():
    box = make_box()
    with runtime.enforcing():
        box.read_columns()
        assert runtime.drain() == []
        box.unguarded_swap_columns()
        violations = runtime.drain()
    assert [v.kind for v in violations] == ["unguarded-write"]
    assert "Box._columns" in violations[0].message


def test_external_pokes_are_outside_the_contract():
    # R001 checks self.<attr> accesses inside the class body; the
    # sanitizer mirrors that, so a test reading internals directly
    # (as assertions all over this suite do) is not a violation.
    box = make_box()
    with runtime.enforcing():
        assert box._items == [1] or box._items == []
        box._items.append(2)
        assert runtime.drain() == []


def test_catches_seeded_lock_order_inversion_single_threaded():
    lock_a = runtime.wrap_lock(threading.Lock(), "A")
    lock_b = runtime.wrap_lock(threading.Lock(), "B")
    with runtime.enforcing():
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:  # seeded inversion: closes the A->B->A cycle
                pass
        violations = runtime.drain()
    assert [v.kind for v in violations] == ["lock-order"]
    assert "'A' acquired while holding 'B'" in violations[0].message


def test_consistent_order_is_clean():
    lock_a = runtime.wrap_lock(threading.Lock(), "A")
    lock_b = runtime.wrap_lock(threading.Lock(), "B")
    with runtime.enforcing():
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert runtime.drain() == []


def test_runtime_order_contradicting_static_model_fails():
    # the static R002 graph says db_lock is taken before stats_lock;
    # observing the reverse at runtime must close a cycle immediately,
    # without needing a second thread to race.
    runtime.set_static_order([("db_lock", "stats_lock")])
    stats = runtime.wrap_lock(threading.Lock(), "stats_lock")
    db = runtime.wrap_lock(threading.Lock(), "db_lock")
    with runtime.enforcing():
        with stats:
            with db:
                pass
        violations = runtime.drain()
    assert [v.kind for v in violations] == ["lock-order"]
    assert "static" in violations[0].message


def test_nonblocking_self_reacquire_is_reported():
    lock = runtime.wrap_lock(threading.Lock(), "L")
    with runtime.enforcing():
        assert lock.acquire()
        assert lock.acquire(blocking=False) is False
        lock.release()
        violations = runtime.drain()
    assert [v.kind for v in violations] == ["lock-order"]
    assert "self-deadlock" in violations[0].message


def test_real_correction_store_is_clean_under_enforcement():
    runtime.sanitize_class(FeedbackStore)
    store = FeedbackStore(corrections=True)
    from repro.feedback.observation import (
        FeedbackKey,
        OperatorObservation,
        q_error,
    )

    with runtime.enforcing():
        store.record_all(
            [
                OperatorObservation(
                    operator="scan",
                    tables=("orders",),
                    targets=(FeedbackKey.of("orders", ["status"]),),
                    estimated_rows=10.0,
                    actual_rows=100,
                    q_error=q_error(10.0, 100),
                )
            ]
        )
        store.correct_filter("orders", ["status"], 0.1)
        store.correct_join("orders", ["id"], "items", ["order_id"], 0.1)
        _ = store.version
        store.q_error_for_columns("orders", ["status"])
        store.tables_by_error()
        store.snapshot()
        store.invalidate("orders", ["status"])
        store.invalidate("orders")
        store.counters()
        assert runtime.drain() == []
