"""Row values and row identities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.crypto.encoding import encode_values
from repro.db.schema import TableSchema

__all__ = ["Row"]


@dataclass(frozen=True)
class Row:
    """An immutable tuple of column values bound to a schema.

    Rows compare and hash by their values, so result sets can be
    compared structurally in tests and verification code.

    A row served from a replica memoises its wire form (:attr:`encoding`)
    the first time it is asked for; at-rest tampering replaces the row
    object (:meth:`replace`), so a memo never outlives its values.
    """

    schema: TableSchema
    values: tuple[Any, ...]
    _encoding = None  # not a field: set by ``encoding`` on first use

    def __init__(self, schema: TableSchema, values: Sequence[Any]) -> None:
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", schema.validate_row(values))

    @property
    def encoding(self) -> bytes:
        """``count | enc(v1) … enc(vn)`` (:func:`encode_values`): the
        row as a result ships it, and each ``enc(v)`` the suffix
        formula (1) hashes — made once per row object and kept."""
        if self._encoding is None:
            object.__setattr__(self, "_encoding", encode_values(self.values))
        return self._encoding

    @property
    def key(self) -> Any:
        """Primary-key value of this row."""
        return self.values[self.schema.key_index]

    def __getitem__(self, column: str | int) -> Any:
        if isinstance(column, int):
            return self.values[column]
        return self.values[self.schema.column_index(column)]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict[str, Any]:
        """Column-name → value mapping."""
        return dict(zip(self.schema.column_names, self.values, strict=False))

    def project(self, names: Sequence[str]) -> "Row":
        """A new row containing only ``names`` (in the given order)."""
        return Row(self.schema.project(names), tuple(self[n] for n in names))

    def replace(self, **updates: Any) -> "Row":
        """A copy of the row with some columns replaced."""
        vals = list(self.values)
        for name, value in updates.items():
            vals[self.schema.column_index(name)] = value
        return Row(self.schema, vals)

    def byte_width(self) -> int:
        """Nominal stored width of this row (fixed-width column model)."""
        return self.schema.tuple_width()
