"""Workloads: the synthetic UIS dataset and the paper's four queries.

* :mod:`repro.workloads.generator` — parameterized temporal-relation
  generation (used for calibration-style micro workloads and property
  tests);
* :mod:`repro.workloads.uis` — the University Information System dataset
  with the distributional properties the paper states (Section 5.1);
* :mod:`repro.workloads.queries` — Query 1-4 as temporal SQL plus the
  enumerated plans of Figures 7 and 9.
"""
