"""Logical algebra: schemas, scalar expressions, and operator trees.

This is the language the optimizer speaks.  A query plan is a tree of
:class:`~repro.algebra.operators.Operator` nodes; each node carries a
*location* (DBMS or middleware) and an output schema; what order its
algorithm needs and delivers is declared in :mod:`repro.algebra.properties`.
The transfer operators ``T^M`` and ``T^D`` are ordinary nodes, which lets the
paper's transformation rules (T1-T12, E1-E5) be expressed as plain tree
rewrites.
"""
