"""Logical algebra: schemas, scalar expressions, and operator trees.

This is the language the optimizer speaks.  A query plan is a tree of
:class:`~repro.algebra.operators.Operator` nodes; each node carries a
*location* (DBMS or middleware) and an output schema; what order its
algorithm needs and delivers is declared in :mod:`repro.algebra.properties`.
The transfer operators ``T^M`` and ``T^D`` are ordinary nodes, which lets the
paper's transformation rules (T1-T12, E1-E5) be expressed as plain tree
rewrites.
"""

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.algebra.expressions import (
    And,
    BinOp,
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    Literal,
    Not,
    Or,
    col,
    lit,
)
from repro.algebra.operators import (
    Location,
    Operator,
    Scan,
    Select,
    Project,
    Sort,
    Join,
    TemporalJoin,
    TemporalAggregate,
    Product,
    Dedup,
    Coalesce,
    Difference,
    TransferM,
    TransferD,
    AggregateSpec,
)
from repro.algebra.properties import is_prefix_of, guaranteed_order
from repro.algebra import builder

__all__ = [
    "Attribute",
    "AttrType",
    "Schema",
    "Expression",
    "ColumnRef",
    "Literal",
    "BinOp",
    "Comparison",
    "And",
    "Or",
    "Not",
    "FuncCall",
    "col",
    "lit",
    "Location",
    "Operator",
    "Scan",
    "Select",
    "Project",
    "Sort",
    "Join",
    "TemporalJoin",
    "TemporalAggregate",
    "Product",
    "Dedup",
    "Coalesce",
    "Difference",
    "TransferM",
    "TransferD",
    "AggregateSpec",
    "is_prefix_of",
    "guaranteed_order",
    "builder",
]
