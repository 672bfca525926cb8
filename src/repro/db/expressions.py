"""Predicate expressions for selections.

The expression AST supports the condition forms the paper allows for
selection — ``A_i θ a`` with ``θ ∈ {=, <, <=, >, >=, !=}`` — combined
with AND/OR/NOT.  Beyond evaluation, predicates can report:

* :meth:`Predicate.key_range` — the contiguous key interval implied on
  a given column (drives index selection and the paper's "selection on
  the primary key yields a range of contiguous tuples" case);
* :meth:`Predicate.columns` — referenced columns (planner bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.db.rows import Row
from repro.exceptions import DatabaseError

__all__ = [
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "AlwaysTrue",
    "KeyRange",
    "between",
]

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class KeyRange:
    """A (possibly half-open) interval of key values.

    ``low=None`` / ``high=None`` denote unbounded ends.  ``empty`` marks
    a provably unsatisfiable range (e.g. ``k > 5 AND k < 3``).
    """

    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    empty: bool = False

    def intersect(self, other: "KeyRange") -> "KeyRange":
        """Intersection of two ranges (used when ANDing predicates)."""
        if self.empty or other.empty:
            return KeyRange(empty=True)
        low, low_inc = self.low, self.low_inclusive
        if other.low is not None and (low is None or other.low > low):
            low, low_inc = other.low, other.low_inclusive
        elif other.low is not None and other.low == low:
            low_inc = low_inc and other.low_inclusive
        high, high_inc = self.high, self.high_inclusive
        if other.high is not None and (high is None or other.high < high):
            high, high_inc = other.high, other.high_inclusive
        elif other.high is not None and other.high == high:
            high_inc = high_inc and other.high_inclusive
        result = KeyRange(low, high, low_inc, high_inc)
        if (
            low is not None
            and high is not None
            and (low > high or (low == high and not (low_inc and high_inc)))
        ):
            return KeyRange(empty=True)
        return result

    def contains(self, key: Any) -> bool:
        """True if ``key`` lies within the range."""
        if self.empty:
            return False
        if self.low is not None:
            if self.low_inclusive and key < self.low:
                return False
            if not self.low_inclusive and key <= self.low:
                return False
        if self.high is not None:
            if self.high_inclusive and key > self.high:
                return False
            if not self.high_inclusive and key >= self.high:
                return False
        return True


class Predicate:
    """Base class for filter predicates."""

    def evaluate(self, row: Row) -> bool:
        """Truth value of the predicate on ``row``."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns the predicate references."""
        raise NotImplementedError

    def key_range(self, column: str) -> Optional[KeyRange]:
        """The contiguous interval this predicate implies on ``column``,
        or ``None`` if it does not reduce to one (e.g. OR of disjoint
        ranges, or predicates on other columns under OR)."""
        raise NotImplementedError

    # Composition sugar ------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class AlwaysTrue(Predicate):
    """The trivial predicate (full scans)."""

    def evaluate(self, row: Row) -> bool:
        return True

    def columns(self) -> set[str]:
        return set()

    def key_range(self, column: str) -> Optional[KeyRange]:
        return KeyRange()


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column θ literal``."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise DatabaseError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Row) -> bool:
        return _OPS[self.op](row[self.column], self.value)

    def columns(self) -> set[str]:
        return {self.column}

    def key_range(self, column: str) -> Optional[KeyRange]:
        if self.column != column:
            # A predicate on a different column doesn't constrain `column`.
            return KeyRange()
        if self.op == "=":
            return KeyRange(self.value, self.value)
        if self.op == "<":
            return KeyRange(high=self.value, high_inclusive=False)
        if self.op == "<=":
            return KeyRange(high=self.value)
        if self.op == ">":
            return KeyRange(low=self.value, low_inclusive=False)
        if self.op == ">=":
            return KeyRange(low=self.value)
        # != does not reduce to one contiguous interval.
        return None


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction."""

    left: Predicate
    right: Predicate

    def evaluate(self, row: Row) -> bool:
        return self.left.evaluate(row) and self.right.evaluate(row)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def key_range(self, column: str) -> Optional[KeyRange]:
        lr = self.left.key_range(column)
        rr = self.right.key_range(column)
        if lr is None or rr is None:
            return None
        return lr.intersect(rr)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction."""

    left: Predicate
    right: Predicate

    def evaluate(self, row: Row) -> bool:
        return self.left.evaluate(row) or self.right.evaluate(row)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def key_range(self, column: str) -> Optional[KeyRange]:
        lr = self.left.key_range(column)
        rr = self.right.key_range(column)
        if lr is None or rr is None:
            return None
        if not self.left.columns() and not self.right.columns():
            return KeyRange()
        # A disjunction only yields a usable single interval if both
        # sides constrain the same column; take the convex hull (safe
        # over-approximation for index scans — the filter re-checks).
        if self.columns() != {column}:
            return None
        low, low_inc = lr.low, lr.low_inclusive
        # On an equal bound the hull includes it if either side does.
        if rr.low is None or (low is not None and rr.low <= low):
            low, low_inc = rr.low, rr.low_inclusive or (rr.low == low and low_inc)
        high, high_inc = lr.high, lr.high_inclusive
        if rr.high is None or (high is not None and rr.high >= high):
            high, high_inc = rr.high, rr.high_inclusive or (rr.high == high and high_inc)
        if lr.empty:
            return rr
        if rr.empty:
            return lr
        return KeyRange(low, high, low_inc, high_inc)


@dataclass(frozen=True)
class Not(Predicate):
    """Negation."""

    inner: Predicate

    def evaluate(self, row: Row) -> bool:
        return not self.inner.evaluate(row)

    def columns(self) -> set[str]:
        return self.inner.columns()

    def key_range(self, column: str) -> Optional[KeyRange]:
        # Negations rarely stay contiguous; be conservative.
        if column in self.inner.columns():
            return None
        return KeyRange()


def between(column: str, low: Any, high: Any) -> Predicate:
    """``low <= column <= high`` — the paper's canonical range selection."""
    return And(Comparison(column, ">=", low), Comparison(column, "<=", high))
