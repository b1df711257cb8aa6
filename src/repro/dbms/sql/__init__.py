"""MiniDB's SQL subset.

The dialect covers what TANGO's Translator-To-SQL emits and what the
benchmark queries need:

* ``SELECT [DISTINCT] ... FROM t [alias], (SELECT ...) alias, ...``
  with ``WHERE``, ``GROUP BY``, ``HAVING``, ``ORDER BY``,
  ``UNION``/``UNION ALL``;
* scalar functions ``GREATEST``/``LEAST``/``ABS``, aggregates
  ``COUNT/SUM/AVG/MIN/MAX`` (including ``COUNT(*)``);
* ``DATE 'YYYY-MM-DD'`` literals (stored as integer day numbers);
* optimizer hints ``/*+ USE_NL */`` and ``/*+ USE_MERGE */`` — the paper
  sets Oracle's join method this way in Query 4;
* DDL/DML: ``CREATE TABLE``, ``CREATE INDEX``, ``INSERT`` (``VALUES`` and
  ``SELECT`` forms), ``DELETE``, ``DROP TABLE``, and
  ``ANALYZE TABLE ... COMPUTE STATISTICS``.
"""
