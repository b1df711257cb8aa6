"""The middleware query-processing library (our XXL analogue).

The paper's Execution Engine is built on van den Bercken et al.'s XXL
library of query-processing algorithms: every algorithm is an iterator
("result set") with ``init()`` / ``hasNext()`` / ``getNext()`` methods,
enabling pipelined execution (Figure 2).  This package reimplements that
model, with ``getNext()`` handing out a batch of rows per call:

* :class:`~repro.xxl.cursor.Cursor` — the iterator protocol;
* sources — in-memory relations and ``TRANSFER^M`` SQL cursors;
* order-preserving filter and project;
* external merge sort;
* sort-merge equi-join and sort-merge **temporal** join;
* the paper's two-sorted-copies **temporal aggregation** (Section 3.4);
* the Section 7 extension operators: duplicate elimination, coalescing,
  and multiset difference.

All middleware algorithms are order preserving (Section 4) — a fact the
optimizer's list-equivalence rules rely on.
"""

from repro.xxl.cursor import Cursor
from repro.xxl.exchange import ExchangeCursor
from repro.xxl.sources import SQLCursor
from repro.xxl.filter import FilterCursor
from repro.xxl.project import ProjectCursor
from repro.xxl.sort import SortCursor
from repro.xxl.merge_join import MergeJoinCursor
from repro.xxl.temporal_join import TemporalJoinCursor
from repro.xxl.temporal_aggregate import TemporalAggregateCursor
from repro.xxl.transfer import TransferDCursor
from repro.xxl.dedup import DedupCursor
from repro.xxl.coalesce import CoalesceCursor
from repro.xxl.difference import DifferenceCursor

__all__ = [
    "Cursor",
    "ExchangeCursor",
    "SQLCursor",
    "FilterCursor",
    "ProjectCursor",
    "SortCursor",
    "MergeJoinCursor",
    "TemporalJoinCursor",
    "TemporalAggregateCursor",
    "TransferDCursor",
    "DedupCursor",
    "CoalesceCursor",
    "DifferenceCursor",
]
