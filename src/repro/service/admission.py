"""Admission control for the service front-end: queue + rate limiter.

Two independent gates stand between a client and a request worker:

* :class:`TokenBucket` — per-session rate limiting.  Each session gets a
  bucket refilled at the configured sustained rate with a bounded burst;
  an empty bucket rejects the request with a precise retry-after (the
  time until one token accumulates) instead of queueing it, so a noisy
  session cannot fill the shared queue.
* :class:`AdmissionQueue` — a bounded priority queue feeding the request
  worker pool.  Past the high-water mark new requests are rejected with
  :class:`~repro.errors.ServiceRejectedError` (backpressure); below it,
  requests drain highest-priority-class first and strictly FIFO within a
  class.

Both reject rather than block: the client owns the retry policy, the
service only promises bounded memory and bounded queueing delay.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.concurrency import guarded_by
from repro.errors import ServiceError, ServiceRejectedError

#: the retry-after hint, in seconds, a queue-full rejection carries and
#: the floor of a rate-limit rejection's hint
RETRY_AFTER_SECONDS = 0.05


class TokenBucket:
    """Classic token-bucket rate limiter with an injectable clock.

    Args:
        rate: sustained token refill rate per second (> 0).
        burst: bucket capacity — requests that may pass back-to-back
            from a full bucket (>= 1).
        retry_after_floor: minimum retry-after hint attached to
            rejections (the computed token-deficit time is used when
            larger).
        clock: monotonic time source; injectable so tests can drive the
            bucket deterministically.
    """

    _tokens = guarded_by("_lock")
    _updated = guarded_by("_lock")

    def __init__(
        self,
        rate: float,
        burst: int,
        retry_after_floor: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ServiceError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ServiceError(f"burst must be >= 1, got {burst}")
        self._rate = float(rate)
        self._burst = float(burst)
        self._floor = float(retry_after_floor)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self._burst
        self._updated = self._clock()

    def acquire(self) -> None:
        """Consume one token.

        Raises:
            ServiceRejectedError: (reason ``"rate_limited"``) when the
                bucket is empty; ``retry_after`` is the time until one
                token refills.
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self._burst, self._tokens + (now - self._updated) * self._rate
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            retry_after = max(self._floor, (1.0 - self._tokens) / self._rate)
        raise ServiceRejectedError(
            f"session rate limit exceeded; retry in {retry_after:.3f}s",
            retry_after=retry_after,
            reason="rate_limited",
        )


class _Ticket:
    """One queued request plus the rendezvous for its response.

    The submitting thread blocks in :meth:`wait`; the request worker
    publishes either a response or an exception via :meth:`resolve` /
    :meth:`fail`.  ``enqueued_at`` lets the worker compute queue wait.
    """

    __slots__ = ("request", "priority", "enqueued_at", "response",
                 "error", "_done")

    def __init__(self, request: object, priority: int,
                 enqueued_at: float) -> None:
        self.request = request
        self.priority = priority
        self.enqueued_at = enqueued_at
        self.response: object = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    def resolve(self, response: object) -> None:
        self.response = response
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> object:
        if not self._done.wait(timeout):
            raise ServiceError("timed out waiting for a queued request")
        if self.error is not None:
            raise self.error
        return self.response


class AdmissionQueue:
    """Bounded priority queue with high-water backpressure.

    ``admit`` never blocks: requests past the high-water mark are
    rejected with a retry-after hint.  ``take`` blocks workers until a
    ticket is available or the queue closes.  Higher ``priority`` drains
    first; within one priority class tickets leave in exactly the order
    they were admitted (FIFO — a deque per class).

    Args:
        capacity: hard bound on queued tickets (>= 1).
        high_water: backpressure threshold (1..capacity); ``None`` means
            ``capacity``.
        retry_after: retry-after hint attached to rejections.
    """

    _classes = guarded_by("_cond")
    _depth = guarded_by("_cond")
    _closed = guarded_by("_cond")
    admitted = guarded_by("_cond")
    rejected = guarded_by("_cond")

    def __init__(
        self,
        capacity: int,
        high_water: Optional[int] = None,
        retry_after: float = RETRY_AFTER_SECONDS,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        high_water = capacity if high_water is None else high_water
        if not 1 <= high_water <= capacity:
            raise ServiceError(
                f"high_water must be in [1, {capacity}], got {high_water}"
            )
        self.capacity = capacity
        self.high_water = high_water
        self._retry_after = float(retry_after)
        self._cond = threading.Condition()
        # priority -> FIFO of tickets; kept sparse so an idle priority
        # class costs nothing.
        self._classes: Dict[int, collections.deque] = {}
        self._depth = 0
        self._closed = False
        self.admitted = 0
        self.rejected = 0

    def admit(self, request: object, priority: int = 0) -> _Ticket:
        """Enqueue a request; returns the ticket to wait on.

        Raises:
            ServiceRejectedError: (reason ``"queue_full"``) when the
                queue is at or past its high-water mark.
            ServiceError: if the queue has been closed.
        """
        with self._cond:
            if self._closed:
                raise ServiceError("admission queue is closed")
            if self._depth >= self.high_water:
                self.rejected += 1
                depth = self._depth
            else:
                ticket = _Ticket(request, priority, time.perf_counter())
                self._classes.setdefault(priority, collections.deque())
                self._classes[priority].append(ticket)
                self._depth += 1
                self.admitted += 1
                self._cond.notify()
                return ticket
        raise ServiceRejectedError(
            f"admission queue at high-water mark ({depth}/"
            f"{self.high_water}); retry in {self._retry_after:.3f}s",
            retry_after=self._retry_after,
            reason="queue_full",
        )

    def take(self, timeout: Optional[float] = None) -> Optional[_Ticket]:
        """Remove the next ticket (highest priority, FIFO within it).

        Blocks until a ticket is available or the queue closes; returns
        None on timeout or when a closed queue is empty.
        """
        with self._cond:
            if self._depth == 0 and not self._closed:
                self._cond.wait(timeout)
            if self._depth == 0:
                return None
            priority = max(p for p, q in self._classes.items() if q)
            ticket = self._classes[priority].popleft()
            if not self._classes[priority]:
                del self._classes[priority]
            self._depth -= 1
            return ticket

    def close(self) -> List[_Ticket]:
        """Stop admissions, wake blocked workers, return stranded tickets.

        The service fails stranded tickets so no submitter blocks on a
        response that will never come.
        """
        with self._cond:
            self._closed = True
            stranded: List[_Ticket] = []
            for queue in self._classes.values():
                stranded.extend(queue)
            self._classes.clear()
            self._depth = 0
            self._cond.notify_all()
            return stranded

    @property
    def depth(self) -> int:
        with self._cond:
            return self._depth

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._cond:
            return (
                f"AdmissionQueue(depth={self._depth}/{self.capacity}, "
                f"high_water={self.high_water}, admitted={self.admitted}, "
                f"rejected={self.rejected})"
            )
