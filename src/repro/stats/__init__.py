"""Statistics collection and selectivity estimation.

* :mod:`repro.stats.histogram` — height-balanced histograms, the shape
  conventional DBMSs maintain.
* :mod:`repro.stats.collector` — the paper's Statistics Collector component:
  pulls base-relation and attribute statistics out of the DBMS catalog.
* :mod:`repro.stats.selectivity` — Section 3.3: ``StartBefore``/``EndBefore``
  and the temporal-predicate estimators built from them, next to the naive
  independent-predicate baseline they improve upon.
* :mod:`repro.stats.cardinality` — result-cardinality derivation for every
  algebra operator, including the temporal-aggregation bounds of Section 3.4.
"""

from repro.stats.collector import StatisticsCollector
from repro.stats.cardinality import CardinalityEstimator

__all__ = ["StatisticsCollector", "CardinalityEstimator"]
