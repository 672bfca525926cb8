"""Column type system for the mini-DBMS substrate.

Each :class:`ColumnType` knows how to validate Python values, how wide
the value is on disk (for the page-geometry model that drives B-tree
fan-out, Section 4.1 of the paper), and how to order keys.

Supported types mirror what the paper's cost model needs: fixed-width
integers/floats, fixed-cap strings (``VARCHAR(n)``), and BLOBs (the
paper calls out BLOB projection as a motivating case for edge-side
projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import SchemaError, TypeMismatchError

__all__ = [
    "ColumnType",
    "IntType",
    "FloatType",
    "VarcharType",
    "BlobType",
    "BoolType",
    "type_from_name",
]


@dataclass(frozen=True)
class ColumnType:
    """Base class for column types.

    Attributes:
        name: SQL-ish type name used by the catalog and the SQL parser.
    """

    name: str = "ANY"

    def validate(self, value: Any) -> Any:
        """Check (and normalize) ``value``; raise on type mismatch.

        Returns:
            The normalized value to store.

        Raises:
            TypeMismatchError: If the value does not conform.
        """
        return value

    def byte_width(self, value: Any = None) -> int:
        """On-disk width in bytes.

        For fixed-width types the argument is ignored; variable types
        report their declared capacity when ``value is None`` and the
        actual encoded length otherwise.
        """
        raise NotImplementedError

    @property
    def orderable(self) -> bool:
        """True if the type supports range predicates / B-tree keys."""
        return True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntType(ColumnType):
    """64-bit signed integer."""

    name: str = "INT"
    width: int = 8

    def validate(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"expected int, got {value!r}")
        if not -(2**63) <= value < 2**63:
            raise TypeMismatchError(f"int out of 64-bit range: {value}")
        return value

    def byte_width(self, value: Any = None) -> int:
        return self.width


@dataclass(frozen=True)
class FloatType(ColumnType):
    """IEEE-754 double."""

    name: str = "FLOAT"

    def validate(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(f"expected float, got {value!r}")
        return float(value)

    def byte_width(self, value: Any = None) -> int:
        return 8


@dataclass(frozen=True)
class BoolType(ColumnType):
    """Single-byte boolean."""

    name: str = "BOOL"

    def validate(self, value: Any) -> bool:
        if not isinstance(value, bool):
            raise TypeMismatchError(f"expected bool, got {value!r}")
        return value

    def byte_width(self, value: Any = None) -> int:
        return 1


@dataclass(frozen=True)
class _CappedType(ColumnType):
    """A type with a declared byte ``capacity``, stored fixed-width at it."""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SchemaError(f"{self.name} capacity must be positive: {self.capacity}")

    def byte_width(self, value: Any = None) -> int:
        return self.capacity

    def __str__(self) -> str:
        return f"{self.name}({self.capacity})"


@dataclass(frozen=True)
class VarcharType(_CappedType):
    """UTF-8 string with a declared capacity, stored fixed-width.

    Storing at capacity keeps the page-geometry model simple (the paper
    assumes fixed tuple sizes throughout Section 4).
    """

    name: str = "VARCHAR"
    capacity: int = 255

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected str, got {value!r}")
        try:
            size = len(value.encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate: no UTF-8, no encoding
            raise TypeMismatchError(f"str is not UTF-8 encodable: {value!r}") from None
        if size > self.capacity:
            raise TypeMismatchError(f"{size} bytes do not fit {self}")
        return value


@dataclass(frozen=True)
class BlobType(_CappedType):
    """Binary large object with a declared capacity.

    Not orderable — BLOB columns cannot be B-tree keys, matching the
    paper's treatment of BLOBs as payload to be projected away.
    """

    name: str = "BLOB"
    capacity: int = 4096

    def validate(self, value: Any) -> bytes:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeMismatchError(f"expected bytes, got {value!r}")
        data = bytes(value)
        if len(data) > self.capacity:
            raise TypeMismatchError(f"{len(data)} bytes do not fit {self}")
        return data

    @property
    def orderable(self) -> bool:
        return False


def type_from_name(name: str, capacity: int | None = None) -> ColumnType:
    """Instantiate a column type by SQL name.

    Args:
        name: ``INT``, ``FLOAT``, ``BOOL``, ``VARCHAR`` or ``BLOB``
            (case-insensitive).
        capacity: Capacity for VARCHAR/BLOB (defaults apply otherwise).

    Raises:
        SchemaError: For unknown type names.
    """
    upper = name.upper()
    if upper in ("INT", "INTEGER", "BIGINT"):
        return IntType()
    if upper in ("FLOAT", "DOUBLE", "REAL"):
        return FloatType()
    if upper in ("BOOL", "BOOLEAN"):
        return BoolType()
    if upper == "VARCHAR":
        return VarcharType(capacity=capacity or 255)
    if upper == "BLOB":
        return BlobType(capacity=capacity or 4096)
    raise SchemaError(f"unknown column type {name!r}")
