"""Relational operators: scan, filter, project, join.

A tiny pull-based (iterator) execution engine.  Plans are trees of
:class:`PlanNode`; ``execute()`` yields :class:`~repro.db.rows.Row`
objects.  The planner in :mod:`repro.sql.planner` builds these; the
edge server uses them for the relational part of query processing
before constructing verification objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.db.expressions import Predicate
from repro.db.rows import Row
from repro.db.schema import TableSchema, joined_schema
from repro.db.table import Table
from repro.exceptions import PlanningError, SchemaError

__all__ = [
    "PlanNode",
    "SeqScan",
    "IndexRangeScan",
    "Filter",
    "Project",
    "NestedLoopJoin",
    "MergeJoin",
    "execute_to_list",
]


class PlanNode:
    """Base class for plan operators."""

    @property
    def schema(self) -> TableSchema:
        """Schema of the rows this operator produces."""
        raise NotImplementedError

    def execute(self) -> Iterator[Row]:
        """Yield result rows."""
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        """Readable plan tree (mirrors EXPLAIN output)."""
        pad = "  " * depth
        line = pad + self._describe()
        children = "".join(
            "\n" + c.explain(depth + 1) for c in self._children()
        )
        return line + children

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> Sequence["PlanNode"]:
        return ()


@dataclass
class SeqScan(PlanNode):
    """Full scan of a table in key order."""

    table: Table

    @property
    def schema(self) -> TableSchema:
        return self.table.schema

    def execute(self) -> Iterator[Row]:
        return self.table.scan()

    def _describe(self) -> str:
        return f"SeqScan({self.table.name})"


@dataclass
class IndexRangeScan(PlanNode):
    """Key-range scan using the clustered index.

    The predicate is re-applied, so a convex over-approximation of the
    range (see ``Or.key_range``) stays correct.
    """

    table: Table
    predicate: Predicate

    @property
    def schema(self) -> TableSchema:
        return self.table.schema

    def execute(self) -> Iterator[Row]:
        key_range = self.predicate.key_range(self.table.schema.key)
        if key_range is None:
            raise PlanningError(
                "IndexRangeScan requires a predicate with a contiguous key range"
            )
        for row in self.table.range_scan(key_range):
            if self.predicate.evaluate(row):
                yield row

    def _describe(self) -> str:
        return f"IndexRangeScan({self.table.name}, {self.predicate})"


@dataclass
class Filter(PlanNode):
    """Row filter on any input."""

    child: PlanNode
    predicate: Predicate

    @property
    def schema(self) -> TableSchema:
        return self.child.schema

    def execute(self) -> Iterator[Row]:
        for row in self.child.execute():
            if self.predicate.evaluate(row):
                yield row

    def _describe(self) -> str:
        return f"Filter({self.predicate})"

    def _children(self) -> Sequence[PlanNode]:
        return (self.child,)


@dataclass
class Project(PlanNode):
    """Column projection."""

    child: PlanNode
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        child_cols = self.child.schema.column_names
        for name in self.columns:
            if name not in child_cols:
                raise PlanningError(f"projection of unknown column {name!r}")

    @property
    def schema(self) -> TableSchema:
        return self.child.schema.project(self.columns)

    def execute(self) -> Iterator[Row]:
        for row in self.child.execute():
            yield row.project(self.columns)

    def _describe(self) -> str:
        return f"Project({', '.join(self.columns)})"

    def _children(self) -> Sequence[PlanNode]:
        return (self.child,)


@dataclass
class NestedLoopJoin(PlanNode):
    """Equi-join by nested loops (any inputs)."""

    left: PlanNode
    right: PlanNode
    left_column: str
    right_column: str

    @property
    def schema(self) -> TableSchema:
        return joined_schema(
            self.left.schema,
            self.right.schema,
            f"{self.left.schema.name}_join_{self.right.schema.name}",
        )

    def execute(self) -> Iterator[Row]:
        schema = self.schema
        right_rows = list(self.right.execute())
        li = self.left.schema.column_index(self.left_column)
        ri = self.right.schema.column_index(self.right_column)
        for lrow in self.left.execute():
            for rrow in right_rows:
                if lrow.values[li] == rrow.values[ri]:
                    yield Row(schema, lrow.values + rrow.values)

    def _describe(self) -> str:
        return f"NestedLoopJoin({self.left_column} = {self.right_column})"

    def _children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


@dataclass
class MergeJoin(PlanNode):
    """Equi-join by merging two inputs sorted on the join columns.

    Both inputs must arrive sorted on their join column (true for key
    scans); duplicate join values on both sides produce the full cross
    product of the duplicate groups.
    """

    left: PlanNode
    right: PlanNode
    left_column: str
    right_column: str

    @property
    def schema(self) -> TableSchema:
        return joined_schema(
            self.left.schema,
            self.right.schema,
            f"{self.left.schema.name}_join_{self.right.schema.name}",
        )

    def execute(self) -> Iterator[Row]:
        schema = self.schema
        li = self.left.schema.column_index(self.left_column)
        ri = self.right.schema.column_index(self.right_column)
        left_rows = list(self.left.execute())
        right_rows = list(self.right.execute())
        i = j = 0
        while i < len(left_rows) and j < len(right_rows):
            lval = left_rows[i].values[li]
            rval = right_rows[j].values[ri]
            if lval < rval:
                i += 1
            elif lval > rval:
                j += 1
            else:
                # Gather the duplicate groups on both sides.
                i_end = i
                while i_end < len(left_rows) and left_rows[i_end].values[li] == lval:
                    i_end += 1
                j_end = j
                while j_end < len(right_rows) and right_rows[j_end].values[ri] == rval:
                    j_end += 1
                for a in range(i, i_end):
                    for b in range(j, j_end):
                        yield Row(
                            schema, left_rows[a].values + right_rows[b].values
                        )
                i, j = i_end, j_end

    def _describe(self) -> str:
        return f"MergeJoin({self.left_column} = {self.right_column})"

    def _children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


def execute_to_list(plan: PlanNode) -> list[Row]:
    """Run a plan to completion and materialize the result."""
    return list(plan.execute())
