"""The frozen :class:`TangoConfig` — every behavioural knob of the middleware.

Its own module so that the pipeline stages (planner, learner, executor) and
the query service, which composes them without the facade, read it without
importing the :class:`~repro.core.tango.Tango` facade.  ``repro.core.tango``
re-exports it; that is the path clients use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class TangoConfig:
    """Construction-time configuration of a :class:`Tango` instance.

    Frozen: the middleware never mutates its configuration mid-flight.
    Derive variants with :func:`dataclasses.replace`.
    """

    #: Use equi-width histograms for predicate selectivity estimation.
    use_histograms: bool = True
    #: Feed observed transfer timings back into the cost factors
    #: (the Section 7 adaptive loop).
    adaptive: bool = False
    #: Record a span tree for every temporal query (parse → optimize →
    #: translate → execute, with per-cursor cardinalities and transfer
    #: timings; per-call wall times are the EXPLAIN ANALYZE path).
    tracing: bool = False
    #: How transient DBMS failures inside the transfer operators are
    #: retried (capped exponential backoff, per-query budget).
    retry: RetryPolicy = RetryPolicy()
    #: Wall-time bound per query execution, checked at batch boundaries;
    #: a violation raises :class:`~repro.errors.QueryTimeoutError` carrying
    #: the partial trace.  None = no deadline.
    deadline_seconds: float | None = None
    #: When a middleware-partitioned plan fails beyond its retry budget,
    #: re-execute the Section 3.1 initial plan (all processing in the
    #: DBMS) instead of surfacing the error.
    fallback: bool = True
    #: Maximum partitions (and producer threads) a plan may fan out to:
    #: the shipped ``TRANSFER^M`` SELECT splits into per-range predicates
    #: pulled over pooled connections.  1 is the paper-faithful serial
    #: engine — plans, traces, and results are byte-for-byte what they
    #: were without the exchange layer.
    workers: int = 1
    #: Learn per-subtree cardinalities from execution actuals into the
    #: :class:`~repro.core.learner.CardinalityFeedbackStore`, and let
    #: the estimator prefer a learned cardinality over its derivation —
    #: repeated workloads converge to near-true estimates (Section 7's
    #: feedback promise, applied to cardinalities).
    learn_cardinalities: bool = False
    #: JSON file the feedback store is loaded from at startup and saved to
    #: on close — learned cardinalities survive middleware restarts.  None
    #: keeps the store in-memory only.
    feedback_path: str | None = None
