"""SQL front-end: lexer, parser, planner, and the verified session."""

from repro.sql.ast_nodes import (
    ColumnDef,
    CreateTable,
    CreateView,
    DeleteStmt,
    InsertStmt,
    SelectStmt,
    WhereAnd,
    WhereComparison,
    WhereNot,
    WhereOr,
)
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import parse, parse_many
from repro.sql.planner import lower_where, validate_select
from repro.sql.session import QueryOutcome, Session

__all__ = [
    "ColumnDef",
    "CreateTable",
    "CreateView",
    "DeleteStmt",
    "InsertStmt",
    "QueryOutcome",
    "SelectStmt",
    "Session",
    "Token",
    "TokenType",
    "WhereAnd",
    "WhereComparison",
    "WhereNot",
    "WhereOr",
    "lower_where",
    "parse",
    "parse_many",
    "tokenize",
    "validate_select",
]
