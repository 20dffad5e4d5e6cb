"""Relational data model: schemas, typed columns, and bound expressions."""

from .schema import Column, ColumnType, Schema
from .batch import Batch
from .expressions import (
    BinaryOp,
    CaseWhen,
    BoundExpression,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Like,
    Literal,
    LogicalOp,
    UnaryOp,
)

__all__ = [
    "Batch",
    "Column",
    "ColumnType",
    "Schema",
    "Expression",
    "BoundExpression",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "CaseWhen",
    "UnaryOp",
    "Comparison",
    "LogicalOp",
    "FunctionCall",
    "IsNull",
    "Like",
]
