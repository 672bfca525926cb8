"""Table schemas and the database catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.db.types import ColumnType
from repro.exceptions import SchemaError, TypeMismatchError

__all__ = ["Column", "TableSchema", "Catalog", "joined_schema"]

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_identifier(name: str, what: str) -> None:
    if not name or name[0].isdigit() or any(c not in _IDENT_OK for c in name):
        raise SchemaError(f"invalid {what} name: {name!r}")


@dataclass(frozen=True)
class Column:
    """One column: a name and a type."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        _check_identifier(self.name, "column")


@dataclass(frozen=True)
class TableSchema:
    """Schema of a base table or materialized view.

    Attributes:
        name: Table name.
        columns: Ordered column definitions.
        key: Name of the primary-key column (the VB-tree search key).
        column_names: Column names in declaration order.
        key_index: Position of the key column.

    ``column_names``, ``key_index`` and the name → position map behind
    :meth:`column_index` are derived once, at construction (the class
    is frozen): every ``Row.key`` and ``row[name]`` reads them.  They
    stay out of equality, hash and repr, which are those of
    ``(name, columns, key)``.
    """

    name: str
    columns: tuple[Column, ...]
    key: str
    column_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    key_index: int = field(init=False, repr=False, compare=False)
    _index_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, columns: Sequence[Column], key: str) -> None:
        _check_identifier(name, "table")
        cols = tuple(columns)
        if not cols:
            raise SchemaError("a table needs at least one column")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {name!r}")
        if key not in names:
            raise SchemaError(f"key column {key!r} not in table {name!r}")
        key_index = names.index(key)
        key_col = cols[key_index]
        if not key_col.type.orderable:
            raise SchemaError(
                f"key column {key!r} has non-orderable type {key_col.type}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "column_names", tuple(names))
        object.__setattr__(self, "key_index", key_index)
        object.__setattr__(
            self, "_index_of", {n: i for i, n in enumerate(names)}
        )

    @property
    def num_columns(self) -> int:
        """``N_c`` in the paper's notation."""
        return len(self.columns)

    @property
    def key_type(self) -> ColumnType:
        """Type of the key column."""
        return self.columns[self.key_index].type

    def column(self, name: str) -> Column:
        """Look up a column by name.

        Raises:
            SchemaError: If the column does not exist.
        """
        return self.columns[self.column_index(name)]

    def column_index(self, name: str) -> int:
        """Position of column ``name``.

        Raises:
            SchemaError: If the column does not exist.
        """
        try:
            return self._index_of[name]
        except (KeyError, TypeError):
            raise SchemaError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def validate_row(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate one row against the schema; returns normalized values.

        Raises:
            TypeMismatchError: On arity or per-column type violations.
        """
        if len(values) != len(self.columns):
            raise TypeMismatchError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        return tuple(
            col.type.validate(v) for col, v in zip(self.columns, values, strict=True)
        )

    def tuple_width(self) -> int:
        """Nominal tuple width in bytes (sum of column widths)."""
        return sum(c.type.byte_width() for c in self.columns)

    def project(self, names: Sequence[str]) -> "TableSchema":
        """Schema of a projection of this table (key must be retained
        by callers that need further key-based processing; projection
        itself does not require it)."""
        cols = tuple(self.column(n) for n in names)
        key = self.key if self.key in names else names[0]
        return TableSchema(name=self.name, columns=cols, key=key)


def joined_schema(left: TableSchema, right: TableSchema, name: str) -> TableSchema:
    """Schema of an equi-join's rows: the left columns, then the right
    ones, a right column prefixed with its table's name on collision;
    the left key stays the row identity."""
    left_names = set(left.column_names)
    renamed = [
        Column(f"{right.name}_{col.name}", col.type) if col.name in left_names else col
        for col in right.columns
    ]
    return TableSchema(name=name, columns=(*left.columns, *renamed), key=left.key)


@dataclass
class Catalog:
    """Name → schema registry for one logical database."""

    db_name: str
    _schemas: dict[str, TableSchema] = field(default_factory=dict)

    def register(self, schema: TableSchema) -> None:
        """Add a schema.

        Raises:
            SchemaError: If a table of that name already exists.
        """
        if schema.name in self._schemas:
            raise SchemaError(f"table {schema.name!r} already exists")
        self._schemas[schema.name] = schema

    def drop(self, name: str) -> None:
        """Remove a schema.

        Raises:
            SchemaError: If the table does not exist.
        """
        if name not in self._schemas:
            raise SchemaError(f"no table {name!r}")
        del self._schemas[name]

    def get(self, name: str) -> TableSchema:
        """Look up a schema by table name.

        Raises:
            SchemaError: If the table does not exist.
        """
        try:
            return self._schemas[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __iter__(self) -> Iterator[TableSchema]:
        return iter(self._schemas.values())

    def table_names(self) -> list[str]:
        """Sorted list of registered table names."""
        return sorted(self._schemas)
