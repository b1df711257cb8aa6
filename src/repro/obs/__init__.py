"""Query-lifecycle observability: tracing, metrics, EXPLAIN ANALYZE.

The middleware's Section 7 adaptivity depends on *observing* execution —
transfer timings feed the cost-factor feedback loop — and every later
performance claim needs a measurement substrate.  This package provides it:

* :mod:`repro.obs.tracing` — hierarchical :class:`Span` trees over the
  query lifecycle (parse → optimize → translate → execute), managed by a
  :class:`Tracer`;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters and
  histograms (queries served, memo complexity, transfer volume, cache
  hits, DBMS round trips);
* :mod:`repro.obs.instrument` — the span-tree materialization of finished
  executions, read from what every XXL cursor declares about itself;
* :mod:`repro.obs.explain` — the EXPLAIN ANALYZE report joining optimizer
  estimates with executed actuals per operator.
"""

from repro.obs.tracing import Span, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.explain import ExplainAnalyzeReport

__all__ = ["Span", "Tracer", "MetricsRegistry", "ExplainAnalyzeReport"]
