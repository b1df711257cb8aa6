"""``repro.fuzz`` — the differential plan-equivalence fuzzer.

TANGO's correctness contract (Sections 3.1-3.2 of the paper) is that every
plan the optimizer emits — any placement of ``T^M``/``T^D``, any rule
rewrite, any worker/chaos configuration — computes the same relation as the
initial all-DBMS plan, as a list where order is guaranteed and as a
multiset otherwise.  This package turns that contract into a permanent,
seeded differential-testing subsystem:

* :mod:`repro.fuzz.generator` — random temporal queries over randomized
  UIS-shaped schemas (selection, projection, sort, dedup/coalesce, join,
  temporal join, temporal aggregation);
* :mod:`repro.fuzz.oracle` — executes each query under the initial plan
  and under sampled alternatives (top-k memo plans, forced single-rule
  rewrites, a worker/chaos/adaptive config matrix) and compares results with
  the list-vs-multiset semantics each plan's ordering properties declare,
  plus invariant checks (temp-table leaks, retry-budget conservation,
  span-tree well-formedness);
* :mod:`repro.fuzz.shrinker` — delta-debugs any failing (query, plan,
  config, seed) tuple down to a minimal reproducer and emits it as a
  ready-to-paste pytest case;
* :mod:`repro.fuzz.harness` — the budgeted driver behind
  ``python -m repro.fuzz --seed S --budget N``.
"""
