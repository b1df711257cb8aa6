"""TANGO proper: the temporal middleware on top of the substrates.

Components per Figure 1:

* :mod:`repro.core.parser` — temporal SQL (``VALIDTIME``-prefixed) to the
  initial algebraic plan (all processing in the DBMS, one ``T^M`` on top);
* :mod:`repro.core.translator` — Translator-To-SQL: plan parts below ``T^M``
  to SQL text, including the constant-interval rewrite for ``TAGGR^D``;
* :mod:`repro.core.plans` — execution-ready plans: the Figure 5 algorithm
  sequence compiled from an optimized operator tree;
* :mod:`repro.core.engine` — the Execution Engine (Figure 2);
* :mod:`repro.core.planner`, :mod:`repro.core.executor`,
  :mod:`repro.core.learner` — the query pipeline's three stages: what a
  plan is priced with (one planning epoch), the per-thread run /
  fallback policy, and the Section 7 feedback loops;
* :mod:`repro.core.tango` — the :class:`~repro.core.tango.Tango` facade a
  client application talks to, a composition root over the three.
"""

from repro.core.tango import Tango, TangoConfig, QueryResult

__all__ = ["Tango", "TangoConfig", "QueryResult"]
