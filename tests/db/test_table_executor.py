"""Tests for the heap table (the e2e tracer wraps ``Table.insert`` /
``Table.delete`` by name, so the class stays with its tests)."""

import pytest

from repro.db.expressions import Comparison, between
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import IntType, VarcharType
from repro.exceptions import DuplicateKeyError, KeyNotFoundError


@pytest.fixture
def users():
    schema = TableSchema(
        "users",
        (
            Column("id", IntType()),
            Column("name", VarcharType(capacity=20)),
            Column("dept", IntType()),
        ),
        key="id",
    )
    table = Table(schema, index_fanout_override=4)
    for i in range(20):
        table.insert((i, f"user{i}", i % 3))
    return table


class TestTable:
    def test_insert_get_len(self, users):
        assert len(users) == 20
        assert users.get(7)["name"] == "user7"
        assert 7 in users
        assert 99 not in users

    def test_duplicate_key(self, users):
        with pytest.raises(DuplicateKeyError):
            users.insert((7, "dup", 0))

    def test_delete(self, users):
        removed = users.delete(3)
        assert removed["name"] == "user3"
        assert 3 not in users
        with pytest.raises(KeyNotFoundError):
            users.delete(3)

    def test_update_in_place(self, users):
        updated = users.update(4, name="renamed")
        assert updated["name"] == "renamed"
        assert users.get(4)["name"] == "renamed"

    def test_update_key_change(self, users):
        users.update(4, id=100)
        assert 4 not in users
        assert users.get(100)["name"] == "user4"

    def test_update_key_conflict_restores(self, users):
        with pytest.raises(DuplicateKeyError):
            users.update(4, id=5)
        assert users.get(4)["name"] == "user4"  # unchanged

    def test_scan_order(self, users):
        keys = [row.key for row in users.scan()]
        assert keys == list(range(20))

    def test_select_uses_key_range(self, users):
        rows = list(users.select(between("id", 5, 8)))
        assert [r.key for r in rows] == [5, 6, 7, 8]

    def test_select_non_key(self, users):
        rows = list(users.select(Comparison("dept", "=", 1)))
        assert all(r["dept"] == 1 for r in rows)
        assert len(rows) == 7  # ids 1,4,7,10,13,16,19

    def test_data_bytes(self, users):
        assert users.data_bytes() == 20 * users.schema.tuple_width()

    def test_insert_many(self, users):
        n = users.insert_many([(100 + i, f"u{i}", 0) for i in range(5)])
        assert n == 5
        assert len(users) == 25
