"""Mini relational DBMS substrate.

Everything the paper's system presupposes from "the database": typed
schemas, heap tables clustered on a primary-key B+-tree, a predicate
language, relational operators, materialized join views, and a 2PL
lock manager with deadlock detection.
"""

from repro.db.btree import BPlusTree, InternalNode, LeafNode, MutationTrace
from repro.db.executor import (
    Filter,
    IndexRangeScan,
    MergeJoin,
    NestedLoopJoin,
    PlanNode,
    Project,
    SeqScan,
    execute_to_list,
)
from repro.db.expressions import (
    AlwaysTrue,
    And,
    Comparison,
    KeyRange,
    Not,
    Or,
    Predicate,
    between,
)
from repro.db.locks import LockManager, LockMode
from repro.db.mview import MaterializedJoinView
from repro.db.page import PageGeometry
from repro.db.rows import Row
from repro.db.schema import Catalog, Column, TableSchema
from repro.db.table import Table
from repro.db.transactions import Transaction, TransactionManager, TxnStatus
from repro.db.types import (
    BlobType,
    BoolType,
    ColumnType,
    FloatType,
    IntType,
    VarcharType,
    type_from_name,
)

__all__ = [
    "AlwaysTrue",
    "And",
    "BPlusTree",
    "BlobType",
    "BoolType",
    "Catalog",
    "Column",
    "ColumnType",
    "Comparison",
    "Filter",
    "FloatType",
    "IndexRangeScan",
    "IntType",
    "InternalNode",
    "KeyRange",
    "LeafNode",
    "LockManager",
    "LockMode",
    "MaterializedJoinView",
    "MergeJoin",
    "MutationTrace",
    "NestedLoopJoin",
    "Not",
    "Or",
    "PageGeometry",
    "PlanNode",
    "Predicate",
    "Project",
    "Row",
    "SeqScan",
    "Table",
    "TableSchema",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
    "VarcharType",
    "between",
    "execute_to_list",
    "type_from_name",
]
