"""Tests for schemas, the catalog, and rows."""

import pytest

from repro.db.rows import Row
from repro.db.schema import Catalog, Column, TableSchema
from repro.db.types import BlobType, IntType, VarcharType
from repro.exceptions import SchemaError, TypeMismatchError


@pytest.fixture
def schema():
    return TableSchema(
        name="users",
        columns=(
            Column("id", IntType()),
            Column("name", VarcharType(capacity=20)),
            Column("age", IntType()),
        ),
        key="id",
    )


class TestTableSchema:
    def test_basic_properties(self, schema):
        assert schema.column_names == ("id", "name", "age")
        assert schema.num_columns == 3
        assert schema.key_index == 0
        assert isinstance(schema.key_type, IntType)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t", (Column("a", IntType()), Column("a", IntType())), key="a"
            )

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a", IntType()),), key="b")

    def test_blob_key_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a", BlobType()),), key="a")

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (), key="a")

    def test_bad_identifiers_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("1bad", (Column("a", IntType()),), key="a")
        with pytest.raises(SchemaError):
            Column("has space", IntType())

    def test_column_lookup(self, schema):
        assert schema.column("name").type.capacity == 20
        assert schema.column_index("age") == 2
        with pytest.raises(SchemaError):
            schema.column("missing")
        with pytest.raises(SchemaError):
            schema.column_index("missing")

    def test_validate_row(self, schema):
        assert schema.validate_row((1, "ann", 30)) == (1, "ann", 30)

    def test_validate_row_arity(self, schema):
        with pytest.raises(TypeMismatchError):
            schema.validate_row((1, "ann"))

    def test_validate_row_types(self, schema):
        with pytest.raises(TypeMismatchError):
            schema.validate_row((1, 2, 3))

    def test_tuple_width(self, schema):
        assert schema.tuple_width() == 8 + 20 + 8

    def test_project(self, schema):
        sub = schema.project(["name", "id"])
        assert sub.column_names == ("name", "id")
        assert sub.key == "id"

    def test_derived_lookups_are_cached_outside_the_value(self, schema):
        twin = TableSchema(
            name="users",
            columns=(
                Column("id", IntType()),
                Column("name", VarcharType(capacity=20)),
                Column("age", IntType()),
            ),
            key="id",
        )
        assert schema.column_names is schema.column_names
        assert [schema.column_index(n) for n in schema.column_names] == [0, 1, 2]
        assert twin == schema and hash(twin) == hash(schema)
        assert repr(schema) == repr(twin)
        assert "column_names" not in repr(schema)
        assert "_index_of" not in repr(schema)
        rekeyed = TableSchema("users", schema.columns, key="age")
        assert rekeyed != schema and rekeyed.key_index == 2
        with pytest.raises(SchemaError):
            schema.column_index(["unhashable"])

    def test_project_without_key(self, schema):
        sub = schema.project(["name", "age"])
        assert sub.key == "name"


class TestCatalog:
    def test_register_and_get(self, schema):
        cat = Catalog("db")
        cat.register(schema)
        assert cat.get("users") is schema
        assert "users" in cat
        assert cat.table_names() == ["users"]

    def test_duplicate_rejected(self, schema):
        cat = Catalog("db")
        cat.register(schema)
        with pytest.raises(SchemaError):
            cat.register(schema)

    def test_missing_table(self):
        with pytest.raises(SchemaError):
            Catalog("db").get("ghost")

    def test_drop(self, schema):
        cat = Catalog("db")
        cat.register(schema)
        cat.drop("users")
        assert "users" not in cat
        with pytest.raises(SchemaError):
            cat.drop("users")

    def test_iteration(self, schema):
        cat = Catalog("db")
        cat.register(schema)
        assert list(cat) == [schema]


class TestRow:
    def test_construction_validates(self, schema):
        row = Row(schema, (1, "bob", 44))
        assert row.key == 1
        assert row["name"] == "bob"
        assert row[2] == 44
        with pytest.raises(TypeMismatchError):
            Row(schema, (1, "bob", "x"))

    def test_equality_and_hash(self, schema):
        a = Row(schema, (1, "bob", 44))
        b = Row(schema, (1, "bob", 44))
        assert a == b
        assert hash(a) == hash(b)

    def test_as_dict(self, schema):
        assert Row(schema, (1, "b", 2)).as_dict() == {"id": 1, "name": "b", "age": 2}

    def test_iteration_and_len(self, schema):
        row = Row(schema, (1, "b", 2))
        assert list(row) == [1, "b", 2]
        assert len(row) == 3

    def test_project(self, schema):
        row = Row(schema, (1, "b", 2)).project(["age", "name"])
        assert row.values == (2, "b")
        assert row.schema.column_names == ("age", "name")

    def test_replace(self, schema):
        row = Row(schema, (1, "b", 2)).replace(age=3)
        assert row["age"] == 3
        assert row["id"] == 1

    def test_byte_width(self, schema):
        assert Row(schema, (1, "b", 2)).byte_width() == schema.tuple_width()
