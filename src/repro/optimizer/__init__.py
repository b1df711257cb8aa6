"""The TANGO middleware optimizer.

An extended Volcano-style optimizer (Section 4):

* :mod:`repro.optimizer.memo` — equivalence classes and class elements, the
  measures the paper reports per query (e.g. "12 equivalence classes with
  29 class elements" for Query 1);
* :mod:`repro.optimizer.rules` — the transformation rules T1-T12 and
  equivalences E1-E5 as a table of pattern → rewrite pairs, typed by
  list/multiset equivalence;
* :mod:`repro.optimizer.algorithms` — one row per (operator, location)
  algorithm: its Figure 5 label, its Figure 6 (or "generic" DBMS) cost
  formula, its cursor and the node fields it is opened with;
* :mod:`repro.optimizer.costs` — the cost factors and a whole-plan coster;
* :mod:`repro.optimizer.physical` — plan validity (transfer structure,
  sorted-input prerequisites);
* :mod:`repro.optimizer.search` — the two-phase optimization driver;
* :mod:`repro.optimizer.shapes` — a query's shape, its plan with the
  literals taken out: the unit Phase 1 is run and kept for;
* :mod:`repro.optimizer.calibration` — Du-et-al-style cost-factor
  calibration from sample queries.
"""

from repro.optimizer.costs import CostFactors, PlanCoster
from repro.optimizer.search import Optimizer

__all__ = ["CostFactors", "PlanCoster", "Optimizer"]
