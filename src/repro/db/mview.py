"""Materialized join views.

Section 3.3 (Join): ad-hoc joins cannot be pre-authenticated, but in
edge computing "most of the database queries are not likely to be
ad-hoc, but are embedded in application programs and hence known in
advance.  It is thus possible to materialize each join operation, and
construct a VB-tree on the materialized view."

:class:`MaterializedJoinView` is the join's definition and its
incremental maintenance; it holds no rows.  The view's rows live in the
VB-tree built on it — the only copy — and the view reads that tree and
its two bases by name from one ``trees`` mapping, through the surface a
VB-tree offers (``schema``, ``rows()``, ``get_row``).  A synthetic
integer key, ``view_id``, gives the view's VB-tree a unique search key.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.db.rows import Row
from repro.db.schema import Column, TableSchema, joined_schema
from repro.db.types import IntType
from repro.exceptions import KeyNotFoundError

__all__ = ["MaterializedJoinView"]

#: Name of the synthetic key column every materialized view gets.
VIEW_KEY = "view_id"


class MaterializedJoinView:
    """An equi-join of two base tables, maintained row by row.

    Args:
        name: View name (registered like a table).
        trees: Name → VB-tree mapping holding both bases and, once it is
            built, the view's own tree.  Looked up on every use, so a
            tree rebuilt under the same name (key rotation) is the one
            read.
        left: Left base table's name.
        right: Right base table's name.
        left_column: Join column on the left table.
        right_column: Join column on the right table.

    The view's rows carry a synthetic ``view_id`` key assigned in join
    order, then the left row's columns, then the right row's columns
    (collision-renamed).  The view's contents over the current bases
    are :meth:`peek_left_insert` applied to each left row in key order,
    which assigns the same ids a nested-loop or merge join over two key
    scans would.
    """

    def __init__(
        self,
        name: str,
        trees: Mapping[str, Any],
        left: str,
        right: str,
        left_column: str,
        right_column: str,
    ) -> None:
        self.name = name
        self.left = left
        self.right = right
        self.left_column = left_column
        self.right_column = right_column
        self._trees = trees
        left_schema, right_schema = trees[left].schema, trees[right].schema
        self._li = left_schema.column_index(left_column)  # validate early
        self._ri = right_schema.column_index(right_column)
        #: Where the right row starts in a view row: after ``view_id``
        #: and the left row.
        self._right_at = 1 + len(left_schema.columns)
        joined = joined_schema(left_schema, right_schema, name)
        self.schema = TableSchema(
            name=name,
            columns=(Column(VIEW_KEY, IntType()), *joined.columns),
            key=VIEW_KEY,
        )
        self._next_id = 0

    # ------------------------------------------------------------------
    # Incremental maintenance
    #
    # Each side is split into a *peek* (pure: what rows would the base
    # change add/remove, and under which keys) and the mutation proper,
    # so the central server can acquire every lock the maintenance will
    # need before touching any tree — a denied lock must leave the
    # whole multi-tree transaction untouched.
    # ------------------------------------------------------------------

    def peek_left_insert(self, row: Row) -> list[tuple[Any, ...]]:
        """Joined value tuples an insert into the left table would add
        (without ``view_id``), in materialization order."""
        right = self._trees[self.right]
        value = row.values[self._li]
        return [row.values + r.values for r in _matching(right, self.right_column, value)]

    def peek_right_insert(self, row: Row) -> list[tuple[Any, ...]]:
        """Joined value tuples an insert into the right table would add."""
        left = self._trees[self.left]
        value = row.values[self._ri]
        return [r.values + row.values for r in _matching(left, self.left_column, value)]

    def next_keys(self, count: int) -> list[int]:
        """The ``view_id`` keys the next ``count`` materialized rows
        will receive (ids are assigned sequentially)."""
        return list(range(self._next_id, self._next_id + count))

    def materialize(self, joined_values: tuple[Any, ...]) -> Row:
        """The view row for one peeked join tuple, under the next
        ``view_id`` — for the caller to insert into the view's tree."""
        row = Row(self.schema, (self._next_id, *joined_values))
        self._next_id += 1
        return row

    def peek_left_delete(self, row: Row) -> list[Row]:
        """View rows a delete from the left table would remove."""
        # The left row starts right after ``view_id``.
        return self._rows_holding(1 + row.schema.key_index, row.key)

    def peek_right_delete(self, row: Row) -> list[Row]:
        """View rows a delete from the right table would remove."""
        return self._rows_holding(self._right_at + row.schema.key_index, row.key)

    def _rows_holding(self, index: int, key: Any) -> list[Row]:
        return [v for v in self._trees[self.name].rows() if v.values[index] == key]


def _matching(tree: Any, column: str, value: Any) -> list[Row]:
    """Rows of ``tree`` whose ``column`` equals ``value``, in key order:
    a key probe when ``column`` is the tree's key (a key-to-key or FK→PK
    join), a scan otherwise."""
    schema = tree.schema
    if column == schema.key:
        try:
            return [tree.get_row(value)]
        except KeyNotFoundError:
            return []
    index = schema.column_index(column)
    return [r for r in tree.rows() if r.values[index] == value]
