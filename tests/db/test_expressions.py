"""Tests for predicates and key-range extraction."""

import pytest

from repro.db.expressions import (
    AlwaysTrue,
    And,
    Comparison,
    KeyRange,
    Not,
    Or,
    between,
)
from repro.db.rows import Row
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType, VarcharType
from repro.exceptions import DatabaseError


@pytest.fixture
def schema():
    return TableSchema(
        "t",
        (Column("k", IntType()), Column("name", VarcharType(capacity=10))),
        key="k",
    )


def row(schema, k, name="x"):
    return Row(schema, (k, name))


class TestComparison:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 5, True),
            ("=", 6, False),
            ("!=", 6, True),
            ("<", 6, True),
            ("<", 5, False),
            ("<=", 5, True),
            (">", 4, True),
            (">=", 5, True),
            (">=", 6, False),
        ],
    )
    def test_evaluate(self, schema, op, value, expected):
        assert Comparison("k", op, value).evaluate(row(schema, 5)) is expected

    def test_string_comparison(self, schema):
        assert Comparison("name", "=", "x").evaluate(row(schema, 1, "x"))

    def test_unknown_op_rejected(self):
        with pytest.raises(DatabaseError):
            Comparison("k", "~", 1)

    def test_columns(self):
        assert Comparison("k", "=", 1).columns() == {"k"}


class TestKeyRangeExtraction:
    def test_equality(self):
        r = Comparison("k", "=", 5).key_range("k")
        assert (r.low, r.high) == (5, 5)
        assert r.low_inclusive and r.high_inclusive

    def test_bounds(self):
        assert Comparison("k", "<", 5).key_range("k") == KeyRange(
            high=5, high_inclusive=False
        )
        assert Comparison("k", ">=", 5).key_range("k") == KeyRange(low=5)

    def test_not_equal_gives_none(self):
        assert Comparison("k", "!=", 5).key_range("k") is None

    def test_other_column_unconstrained(self):
        r = Comparison("name", "=", "x").key_range("k")
        assert r == KeyRange()

    def test_and_intersects(self):
        pred = And(Comparison("k", ">=", 3), Comparison("k", "<", 9))
        r = pred.key_range("k")
        assert (r.low, r.high) == (3, 9)
        assert r.low_inclusive and not r.high_inclusive

    def test_contradiction_is_empty(self):
        pred = And(Comparison("k", ">", 5), Comparison("k", "<", 3))
        assert pred.key_range("k").empty

    def test_equal_bounds_exclusive_empty(self):
        pred = And(Comparison("k", ">", 5), Comparison("k", "<=", 5))
        assert pred.key_range("k").empty

    def test_or_hull(self):
        pred = Or(
            And(Comparison("k", ">=", 1), Comparison("k", "<=", 3)),
            And(Comparison("k", ">=", 7), Comparison("k", "<=", 9)),
        )
        r = pred.key_range("k")
        assert (r.low, r.high) == (1, 9)  # convex hull over-approximation

    @pytest.mark.parametrize("left, right", [
        (Comparison("k", "<", 0), Comparison("k", "=", 0)),
        (Comparison("k", "=", 0), Comparison("k", "<", 0)),
        (Comparison("k", ">", 0), Comparison("k", ">=", 0)),
        (Comparison("k", ">=", 0), Comparison("k", ">", 0)),
    ])
    def test_or_hull_keeps_a_shared_bound_either_side_includes(self, left, right):
        """``k < 0 OR k = 0`` holds at 0, so its hull must include 0
        whichever side the inclusive bound comes from (it used to keep
        the exclusive one, and a select dropped the row)."""
        r = Or(left, right).key_range("k")
        assert r.contains(0)

    def test_or_mixed_columns_gives_none(self):
        pred = Or(Comparison("k", "=", 1), Comparison("name", "=", "x"))
        assert pred.key_range("k") is None

    def test_not_on_key_gives_none(self):
        assert Not(Comparison("k", "=", 1)).key_range("k") is None

    def test_not_on_other_column_unconstrained(self):
        assert Not(Comparison("name", "=", "x")).key_range("k") == KeyRange()

    def test_between_helper(self, schema):
        pred = between("k", 2, 4)
        assert pred.evaluate(row(schema, 3))
        assert not pred.evaluate(row(schema, 5))
        r = pred.key_range("k")
        assert (r.low, r.high) == (2, 4)


class TestKeyRange:
    def test_contains(self):
        r = KeyRange(low=2, high=5, high_inclusive=False)
        assert not r.contains(1)
        assert r.contains(2)
        assert r.contains(4)
        assert not r.contains(5)

    def test_contains_unbounded(self):
        assert KeyRange().contains(123)

    def test_empty_contains_nothing(self):
        assert not KeyRange(empty=True).contains(0)

    def test_intersect_inclusivity_tightens(self):
        a = KeyRange(low=1, high=9)
        b = KeyRange(low=1, low_inclusive=False, high=9, high_inclusive=False)
        r = a.intersect(b)
        assert not r.low_inclusive and not r.high_inclusive


class TestBooleanCombinators:
    def test_and_or_not_evaluate(self, schema):
        p = (Comparison("k", ">", 2) & Comparison("k", "<", 8)) | Comparison(
            "k", "=", 100
        )
        assert p.evaluate(row(schema, 5))
        assert not p.evaluate(row(schema, 9))
        assert (~p).evaluate(row(schema, 9))

    def test_always_true(self, schema):
        assert AlwaysTrue().evaluate(row(schema, 1))
        assert AlwaysTrue().columns() == set()
        assert AlwaysTrue().key_range("k") == KeyRange()
