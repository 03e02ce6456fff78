"""R002 fixture: locks always acquired in one global order (a -> b)."""

import threading


class Ordered:
    def __init__(self):
        self._alpha_lock = threading.Lock()
        self._beta_lock = threading.Lock()

    def outer(self):
        with self._alpha_lock:
            self.inner()

    def inner(self):
        with self._beta_lock:
            pass

    def both(self):
        with self._alpha_lock:
            with self._beta_lock:
                pass


class Reentrant:
    def __init__(self):
        self._rlock = threading.RLock()

    def outer(self):
        with self._rlock:
            self.inner()

    def inner(self):
        with self._rlock:  # re-acquiring an RLock is legal
            pass


class HandoffToWorker:
    """A lock taken inside a closure handed to a worker thread is not
    acquired by the method that creates the closure: the job runs later,
    on its own thread, after the caller's locks are released.  So
    record() adds no ledger -> spool edge, and drain()'s spool -> ledger
    order is the only one."""

    def __init__(self):
        self._ledger_lock = threading.Lock()
        self._spool_lock = threading.Lock()

    def record(self):
        with self._ledger_lock:
            self.schedule_flush()

    def schedule_flush(self):
        def flush():
            with self._spool_lock:
                pass

        threading.Thread(target=flush).start()

    def drain(self):
        with self._spool_lock:
            with self._ledger_lock:
                pass
