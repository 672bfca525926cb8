"""SQL session over the edge-computing deployment.

A :class:`Session` is the application-developer view of the system:
DDL and DML go to the trusted central server, SELECTs run at an edge
server, and every result is verified against the central server's
signatures before the application sees it.

    >>> session = Session(central, edge)
    >>> session.execute("CREATE TABLE t (id INT, v VARCHAR(10), PRIMARY KEY (id))")
    >>> session.execute("INSERT INTO t VALUES (1, 'x')")
    >>> rows = session.query("SELECT v FROM t WHERE id BETWEEN 0 AND 5")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.verify import Verdict
from repro.db.types import type_from_name
from repro.db.schema import Column, TableSchema
from repro.edge.central import CentralServer
from repro.edge.edge_server import EdgeServer
from repro.exceptions import PlanningError, VerificationFailure
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
    """Execute SQL against the central server + one edge server.

    Args:
        central: The trusted central server (DDL/DML target).
        edge: The edge server answering SELECTs; defaults to the first
            edge spawned from ``central`` (one is created if none).
        strict: If True (default), a failed verification raises
            :class:`~repro.exceptions.VerificationFailure`; if False the
            tainted :class:`QueryOutcome` is returned with its verdict.
    """

    def __init__(
        self,
        central: CentralServer,
        edge: EdgeServer | None = None,
        strict: bool = True,
    ) -> None:
        self.central = central
        if edge is None:
            edge = central.edges[0] if central.edges else central.spawn_edge_server(
                "session-edge"
            )
        self.edge = edge
        self.client = central.make_client()
        self.strict = strict

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
        """Run a SELECT at the edge server and verify the result.

        Raises:
            VerificationFailure: In strict mode, when the edge's answer
                fails verification.
        """
        stmt = parse(sql)
        if not isinstance(stmt, SelectStmt):
            raise PlanningError("Session.query() only accepts SELECT")
        schema, columns, predicate = validate_select(stmt, self.central.catalog)
        response = None
        # Route through a secondary VB-tree when the predicate is exactly
        # a range on an indexed non-key attribute: contiguous envelope,
        # far smaller D_S than a gappy primary-tree scan.
        for index_attr in self._indexed_attributes(stmt.table):
            attr_range = exact_range_on(predicate, index_attr)
            if attr_range is not None and not attr_range.empty and (
                attr_range.low is not None or attr_range.high is not None
            ) and attr_range.low_inclusive and attr_range.high_inclusive:
                response = self.edge.secondary_range_query(
                    stmt.table,
                    index_attr,
                    low=attr_range.low,
                    high=attr_range.high,
                    columns=columns if stmt.columns is not None else None,
                )
                break
        if response is None:
            response = self.edge.select(
                stmt.table,
                predicate,
                columns=columns if stmt.columns is not None else None,
            )
        verdict = self.client.verify(response)
        if self.strict and not verdict.ok:
            raise VerificationFailure(
                f"edge {self.edge.name!r} returned an unverifiable result: "
                f"{verdict.reason}"
            )
        return QueryOutcome(
            columns=response.result.columns,
            rows=list(response.result.rows),
            verdict=verdict,
            wire_bytes=response.wire_bytes,
        )

    # ------------------------------------------------------------------
    # Statement handlers
    # ------------------------------------------------------------------

    def _indexed_attributes(self, table: str):
        """Attributes of ``table`` with a secondary VB-tree."""
        prefix = f"{table}__by_"
        return [
            name[len(prefix):]
            for name in self.central.vbtrees
            if name.startswith(prefix)
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
