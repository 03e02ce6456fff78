"""Concurrency annotations consumed by the ``repro.analysis`` lint suite.

The service layer (PR 1) made correctness depend on invisible
conventions: which lock guards which attribute, and in which order locks
may be acquired.  :func:`guarded_by` turns the first convention into a
machine-checkable declaration.  A class states, in its body, which lock
guards an attribute::

    class CaptureLog:
        _events = guarded_by("_cond")
        _closed = guarded_by("_cond")

        def __init__(self) -> None:
            self._cond = threading.Condition()
            self._events = collections.deque()
            self._closed = False

``repro lint`` (rule R001) then verifies that every ``self._events`` /
``self._closed`` access in the class body happens lexically inside a
``with self._cond:`` block.  ``__init__`` is exempt — the object is not
shared before construction completes.

``mutations_only=True`` declares a single-writer attribute: mutations
must hold the lock, bare reads may be lock-free.  ``TableData._columns``
uses this — column arrays are replaced atomically, never resized in
place, so unlocked single-column reads are safe by design.

At runtime the marker is inert: it is a class attribute that the
instance attribute assigned in ``__init__`` shadows.  Reading it before
``__init__`` runs would be a bug regardless of locking, and the marker's
``__repr__`` makes such a bug easy to spot.
"""

from __future__ import annotations


class GuardedBy:
    """Class-body marker: the named lock guards this attribute.

    Attributes:
        lock: attribute name of the guarding lock on the same instance
            (e.g. ``"_lock"`` for a lock stored as ``self._lock``).
        mutations_only: if True, only writes (attribute assignment,
            augmented assignment, ``self.attr[...] = ...``, ``del``)
            require the lock; reads are declared lock-free.
    """

    __slots__ = ("lock", "mutations_only")

    def __init__(self, lock: str, mutations_only: bool = False) -> None:
        if not lock or not isinstance(lock, str):
            raise ValueError(f"guarded_by needs a lock attribute name, got {lock!r}")
        self.lock = lock
        self.mutations_only = mutations_only

    def __repr__(self) -> str:
        extra = ", mutations_only=True" if self.mutations_only else ""
        return f"guarded_by({self.lock!r}{extra})"


def guarded_by(lock: str, *, mutations_only: bool = False) -> GuardedBy:
    """Declare that ``lock`` (an attribute of the same instance) guards
    the annotated attribute.  See the module docstring for semantics and
    :mod:`repro.analysis` rule R001 for the checker."""
    return GuardedBy(lock, mutations_only=mutations_only)


class PlanSource:
    """Class-body marker: this attribute feeds plan choice and exposes a
    monotone version.

    Attributes:
        prop: name of the version property on the attribute's value
            (default ``"version"``; ``FeedbackStore.version`` is the
            canonical example).

    Rule R009 requires that the declared version is read somewhere on
    the optimize path and folded into every request handed to the plan
    cache — otherwise corrected and uncorrected plans could alias one
    cache entry.  Like :class:`GuardedBy` the marker is runtime-inert:
    the instance attribute assigned in ``__init__`` shadows it.
    """

    __slots__ = ("prop",)

    def __init__(self, prop: str = "version") -> None:
        if not prop or not isinstance(prop, str):
            raise ValueError(f"plan_source needs a property name, got {prop!r}")
        self.prop = prop

    def __repr__(self) -> str:
        return f"plan_source({self.prop!r})"


def plan_source(prop: str = "version") -> PlanSource:
    """Declare that the annotated attribute is a versioned plan-relevant
    source whose ``prop`` must be folded into the plan-cache key.  See
    :mod:`repro.analysis` rule R009 for the checker."""
    return PlanSource(prop)
