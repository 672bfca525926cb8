"""SQL session over the edge-computing deployment.

A :class:`Session` is the application-developer view of the system:
DDL and DML go to the trusted central server; SELECTs go through the
central's :class:`~repro.edge.router.VerifyingRouter`, which asks the
edges and hands back only answers that verified against the central
server's signatures.  An edge whose answer is rejected is quarantined
and the next edge is asked; when none is left the query raises
:class:`~repro.exceptions.RouterError`.

    >>> session = Session(central)
    >>> session.execute("CREATE TABLE t (id INT, v VARCHAR(10), PRIMARY KEY (id))")
    >>> session.execute("INSERT INTO t VALUES (1, 'x')")
    >>> rows = session.query("SELECT v FROM t WHERE id BETWEEN 0 AND 5")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.secondary import secondary_index_name
from repro.core.verify import Verdict
from repro.db.types import type_from_name
from repro.db.schema import Column, TableSchema
from repro.edge.central import CentralServer
from repro.exceptions import PlanningError
from repro.sql.ast_nodes import (
    CreateIndex,
    CreateTable,
    CreateView,
    DeleteStmt,
    InsertStmt,
    SelectStmt,
)
from repro.sql.parser import parse
from repro.sql.planner import exact_range_on, lower_where, validate_select

__all__ = ["Session", "QueryOutcome"]


@dataclass
class QueryOutcome:
    """A verified SELECT result."""

    columns: tuple[str, ...]
    rows: list[tuple[Any, ...]]
    verdict: Verdict
    wire_bytes: int

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class Session:
    """Execute SQL against the central server and its edge servers.

    Args:
        central: The trusted central server (DDL/DML target).  SELECTs
            are routed over its in-process edges (``session-edge`` is
            spawned if it has none).
    """

    def __init__(self, central: CentralServer) -> None:
        self.central = central
        if not central.edges:
            central.spawn_edge_server("session-edge")
        self.router = central.make_router()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> int:
        """Run a DDL/DML statement at the central server.

        Returns:
            Rows affected (0 for DDL).

        Raises:
            PlanningError: If a SELECT is passed (use :meth:`query`).
        """
        stmt = parse(sql)
        if isinstance(stmt, SelectStmt):
            raise PlanningError("use Session.query() for SELECT statements")
        if isinstance(stmt, CreateTable):
            self._create_table(stmt)
            return 0
        if isinstance(stmt, CreateIndex):
            self.central.create_secondary_index(stmt.table, stmt.column)
            return 0
        if isinstance(stmt, CreateView):
            self.central.create_join_view(
                stmt.name,
                stmt.left_table,
                stmt.right_table,
                stmt.left_column,
                stmt.right_column,
            )
            self.central.propagate(stmt.name)
            return 0
        if isinstance(stmt, InsertStmt):
            for row in stmt.rows:
                self.central.insert(stmt.table, row)
            return len(stmt.rows)
        if isinstance(stmt, DeleteStmt):
            return self._delete(stmt)
        raise PlanningError(f"unsupported statement {type(stmt).__name__}")

    def query(self, sql: str) -> QueryOutcome:
        """Run a SELECT at an edge server; only a verified result
        returns.

        Raises:
            RouterError: When no edge produced a result that verified.
        """
        stmt = parse(sql)
        if not isinstance(stmt, SelectStmt):
            raise PlanningError("Session.query() only accepts SELECT")
        schema, columns, predicate = validate_select(stmt, self.central.catalog)
        response = None
        # Route through a secondary VB-tree when the predicate is exactly
        # a range on an indexed non-key attribute: contiguous envelope,
        # far smaller D_S than a gappy primary-tree scan.
        for index_attr in self._indexed_attributes(schema):
            attr_range = exact_range_on(predicate, index_attr)
            if attr_range is not None and not attr_range.empty and (
                attr_range.low is not None or attr_range.high is not None
            ) and attr_range.low_inclusive and attr_range.high_inclusive:
                response = self.router.secondary_range_query(
                    stmt.table,
                    index_attr,
                    low=attr_range.low,
                    high=attr_range.high,
                    columns=columns if stmt.columns is not None else None,
                )
                break
        if response is None:
            response = self.router.select_query(
                stmt.table,
                predicate,
                columns=columns if stmt.columns is not None else None,
            )
        return QueryOutcome(
            columns=response.result.columns,
            rows=list(response.result.rows),
            verdict=response.verdict,
            wire_bytes=response.wire_bytes,
        )

    # ------------------------------------------------------------------
    # Statement handlers
    # ------------------------------------------------------------------

    def _indexed_attributes(self, schema: TableSchema) -> list[str]:
        """Columns of ``schema`` with a secondary VB-tree."""
        return [
            column.name
            for column in schema.columns
            if secondary_index_name(schema.name, column.name)
            in self.central.vbtrees
        ]

    def _create_table(self, stmt: CreateTable) -> None:
        columns = tuple(
            Column(c.name, type_from_name(c.type_name, c.capacity))
            for c in stmt.columns
        )
        schema = TableSchema(stmt.name, columns, key=stmt.primary_key)
        self.central.create_table(schema)
        self.central.propagate(stmt.name)

    def _delete(self, stmt: DeleteStmt) -> int:
        vbt = self.central.base_table(stmt.table)  # refuses a view or an index
        predicate = lower_where(stmt.where, vbt.schema)
        victims = [key for key, _row in vbt.select(predicate)]
        for key in victims:
            self.central.delete(stmt.table, key)
        return len(victims)
