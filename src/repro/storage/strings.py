"""Dictionary encoding for STRING columns.

Every distinct string in a column maps to an integer code.  Codes are
assigned in first-seen order; the storage layer therefore supports
equality, IN, and LIKE predicates on strings (all of which reduce to code
sets) but not order comparisons, which the SQL binder rejects for STRING
columns.

``encode`` is the single-value path DML uses.  ``encode_many`` is the
bulk-load path: it registers a column's unseen strings in one pass over
its distinct values (in first-seen order, so the codes are exactly the
ones row-by-row ``encode`` calls would assign) and maps the rows to codes
without a Python call per row.  ``decode_many`` is its mirror: one bounds
check and one gather.
"""

from __future__ import annotations

import itertools
import re
import weakref
from typing import Iterable, List, Optional

import numpy as np


class StringDictionary:
    """Bidirectional mapping between strings and integer codes."""

    def __init__(self, values: Iterable[str] = ()) -> None:
        self._code_of = {}
        self._value_of: List[str] = []
        # derived arrays, each tagged with the dictionary length(s) it was
        # computed at: codes are append-only, so equal lengths mean
        # unchanged content
        self._ranks: Optional[tuple] = None
        self._codes_in: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self.encode_many(values)

    def __len__(self) -> int:
        return len(self._value_of)

    def __contains__(self, value: str) -> bool:
        return value in self._code_of

    def encode(self, value: str) -> int:
        """Return the code for ``value``, assigning a new one if unseen."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._value_of)
            self._code_of[value] = code
            self._value_of.append(value)
        return code

    def encode_many(self, values: Iterable[str]) -> np.ndarray:
        """Encode an iterable of strings into an int64 array, assigning
        new codes in first-seen order."""
        if not isinstance(values, (list, tuple, np.ndarray)):
            values = list(values)
        code_of = self._code_of
        unseen = [v for v in dict.fromkeys(values) if v not in code_of]
        code_of.update(zip(unseen, itertools.count(len(self._value_of))))
        self._value_of.extend(unseen)
        return np.fromiter(
            map(code_of.__getitem__, values),
            dtype=np.int64,
            count=len(values),
        )

    def lookup(self, value: str) -> Optional[int]:
        """Code for ``value`` or ``None`` if the string never occurred."""
        return self._code_of.get(value)

    def decode(self, code: int) -> str:
        """String for ``code``.

        Raises:
            KeyError: if the code was never assigned.
        """
        if 0 <= code < len(self._value_of):
            return self._value_of[code]
        raise KeyError(f"unknown string code {code}")

    def decode_many(self, codes: Iterable[int]) -> list:
        """Strings for ``codes``, in order.

        Raises:
            KeyError: if any code was never assigned.
        """
        codes = np.asarray(codes, dtype=np.int64)
        values = np.asarray(self._value_of, dtype=object)
        unknown = (codes < 0) | (codes >= values.shape[0])
        if unknown.any():
            raise KeyError(f"unknown string code {codes[unknown][0]}")
        return values[codes].tolist()

    def codes_matching_like(self, pattern: str) -> np.ndarray:
        """Codes of dictionary entries matching a SQL LIKE pattern.

        ``%`` matches any sequence, ``_`` any single character; everything
        else is literal.
        """
        regex = _like_to_regex(pattern)
        matching = [
            code
            for code, value in enumerate(self._value_of)
            if regex.fullmatch(value)
        ]
        return np.asarray(matching, dtype=np.int64)

    def values(self) -> list:
        """All dictionary strings in code order."""
        return list(self._value_of)

    def sort_ranks(self) -> np.ndarray:
        """``ranks[code]``: the dense rank of the code's string among all
        dictionary strings, compared as numpy compares unicode arrays —
        sorting codes by rank sorts rows by string."""
        cached = self._ranks
        if cached is None or cached[0] != len(self._value_of):
            strings = np.asarray(self._value_of, dtype=np.str_)
            ranks = np.unique(strings, return_inverse=True)[1]
            cached = self._ranks = (strings.shape[0], ranks.astype(np.int64))
        return cached[1]

    def codes_in(self, other: "StringDictionary") -> np.ndarray:
        """``mapping[code]``: ``other``'s code for the same string, -1
        where ``other`` never saw it.  Never empty, so it can be indexed
        by an empty code array."""
        lengths = (len(self._value_of), len(other))
        cached = self._codes_in.get(other)
        if cached is None or cached[0] != lengths:
            mapping = np.full(max(1, lengths[0]), -1, dtype=np.int64)
            for code, value in enumerate(self._value_of[: lengths[0]]):
                mapping[code] = other._code_of.get(value, -1)
            cached = self._codes_in[other] = (lengths, mapping)
        return cached[1]


def _like_to_regex(pattern: str) -> "re.Pattern":
    """Translate a SQL LIKE pattern into a compiled regex."""
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), flags=re.DOTALL)
