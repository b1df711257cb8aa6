"""MiniDB — the conventional-DBMS substrate.

The paper runs TANGO on top of Oracle through JDBC.  MiniDB plays that role
here: a small single-user relational engine with

* heap tables with block-level size accounting (:mod:`repro.dbms.table`);
* a SQL subset large enough for everything the Translator-To-SQL emits —
  joins, derived tables, ``UNION``, ``GROUP BY``, ``ORDER BY``,
  ``GREATEST``/``LEAST``, and optimizer hints (:mod:`repro.dbms.sql`);
* an Oracle-flavoured catalog with ``ANALYZE``-style statistics and
  height-balanced histograms (:mod:`repro.dbms.statistics`);
* a JDBC-like connection/cursor API with row prefetch
  (:mod:`repro.dbms.jdbc`);
* a direct-path bulk loader, the target of ``TRANSFER^D``
  (:mod:`repro.dbms.loader`);
* a deterministic simulated cost meter (:mod:`repro.dbms.costmodel`) so
  experiments can report machine-independent work units next to wall-clock.

The middleware treats this package as a black box reachable only through
:class:`repro.dbms.jdbc.Connection` — mirroring the paper's architecture.
"""

from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection

__all__ = ["MiniDB", "Connection"]
