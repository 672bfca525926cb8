"""Mini relational DBMS substrate.

Everything the paper's system presupposes from "the database": typed
schemas, heap tables clustered on a primary-key B+-tree, a predicate
language, materialized join views, and a 2PL lock manager with
deadlock detection.  Queries are answered from VB-trees
(:mod:`repro.core.query_auth`), so there is no relational executor.
"""

from repro.db.btree import BPlusTree, InternalNode, LeafNode, MutationTrace
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
    "FloatType",
    "IntType",
    "InternalNode",
    "KeyRange",
    "LeafNode",
    "LockManager",
    "LockMode",
    "MaterializedJoinView",
    "MutationTrace",
    "Not",
    "Or",
    "PageGeometry",
    "Predicate",
    "Row",
    "Table",
    "TableSchema",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
    "VarcharType",
    "between",
    "type_from_name",
]
