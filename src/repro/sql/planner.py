"""Planner: SQL AST → predicates.

The planner validates statements against a catalog and lowers WHERE
clauses to :mod:`repro.db.expressions` predicates — the form the VO
construction consumes (a VB-tree narrows a predicate that pins its key
to one interval to a range scan: :meth:`repro.core.vbtree.VBTree.select`)."""

from __future__ import annotations

from typing import Optional

from repro.db.expressions import (
    AlwaysTrue,
    And,
    Comparison,
    Not,
    Or,
    Predicate,
)
from repro.db.schema import Catalog, TableSchema
from repro.exceptions import PlanningError
from repro.sql.ast_nodes import (
    SelectStmt,
    WhereAnd,
    WhereComparison,
    WhereExpr,
    WhereNot,
    WhereOr,
)

__all__ = ["lower_where", "validate_select", "exact_range_on"]


def lower_where(where: Optional[WhereExpr], schema: TableSchema) -> Predicate:
    """Lower a WHERE AST to a predicate, checking column references.

    Raises:
        PlanningError: On references to unknown columns.
    """
    if where is None:
        return AlwaysTrue()
    if isinstance(where, WhereComparison):
        if where.column not in schema.column_names:
            raise PlanningError(
                f"unknown column {where.column!r} in table {schema.name!r}"
            )
        return Comparison(where.column, where.op, where.value)
    if isinstance(where, WhereAnd):
        return And(lower_where(where.left, schema), lower_where(where.right, schema))
    if isinstance(where, WhereOr):
        return Or(lower_where(where.left, schema), lower_where(where.right, schema))
    if isinstance(where, WhereNot):
        return Not(lower_where(where.inner, schema))
    raise PlanningError(f"unsupported WHERE node {type(where).__name__}")


def exact_range_on(predicate: Predicate, column: str):
    """The contiguous interval on ``column`` when the predicate is
    *exactly* equivalent to it — i.e. a conjunction of comparisons on
    that single column.  ``None`` otherwise (OR/NOT or other columns
    make range extraction an over-approximation, which would be unsound
    to hand to a secondary index without re-filtering).

    Returns:
        A :class:`~repro.db.expressions.KeyRange` or ``None``.
    """
    from repro.db.expressions import And as _And
    from repro.db.expressions import Comparison as _Cmp

    def exact(node: Predicate) -> bool:
        if isinstance(node, _Cmp):
            return node.column == column and node.op != "!="
        if isinstance(node, _And):
            return exact(node.left) and exact(node.right)
        return False

    if not exact(predicate):
        return None
    return predicate.key_range(column)


def validate_select(
    stmt: SelectStmt, catalog: Catalog
) -> tuple[TableSchema, tuple[str, ...], Predicate]:
    """Resolve a SELECT against the catalog.

    Returns:
        ``(schema, returned_columns, predicate)``.

    Raises:
        PlanningError: On unknown tables/columns.
    """
    try:
        schema = catalog.get(stmt.table)
    except Exception as exc:
        raise PlanningError(str(exc)) from exc
    if stmt.columns is None:
        columns = schema.column_names
    else:
        for name in stmt.columns:
            if name not in schema.column_names:
                raise PlanningError(
                    f"unknown column {name!r} in table {schema.name!r}"
                )
        columns = stmt.columns
    predicate = lower_where(stmt.where, schema)
    return schema, columns, predicate
