"""R002 fixture: two locks acquired in opposite orders (deadlock).

Line numbers are asserted exactly in tests/analysis/test_rules.py.
"""

import threading


class Inverted:
    def __init__(self):
        self._alpha_lock = threading.Lock()
        self._beta_lock = threading.Lock()

    def forward(self):
        with self._alpha_lock:
            with self._beta_lock:  # line 16: alpha -> beta
                pass

    def backward(self):
        with self._beta_lock:
            with self._alpha_lock:  # line 21: beta -> alpha (inversion)
                pass


class SelfDeadlock:
    def __init__(self):
        self._plain_lock = threading.Lock()

    def outer(self):
        with self._plain_lock:
            self.inner()  # line 31: re-acquires a non-reentrant Lock

    def inner(self):
        with self._plain_lock:
            pass


class HandoffUnderOwnLock:
    """The helper takes the outbox lock in its own scope before it hands
    a job to a worker thread, so record() does acquire it while holding
    the journal lock: only the closure's body is a separate context."""

    def __init__(self):
        self._journal_lock = threading.Lock()
        self._outbox_lock = threading.Lock()

    def record(self):
        with self._journal_lock:
            self.schedule_flush()  # line 49: journal -> outbox via helper

    def schedule_flush(self):
        with self._outbox_lock:
            def flush():
                pass

            threading.Thread(target=flush).start()

    def drain(self):
        with self._outbox_lock:
            with self._journal_lock:  # line 60: outbox -> journal
                pass
