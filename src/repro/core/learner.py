"""The Learner: what an execution teaches the middleware (Section 7).

"DBMS query processing statistics, such as the running times of query
parts, may be used to update the cost factors used in the middleware's cost
formulas" — the abstract's "performance feedback from the DBMS to adapt
its partitioning of subsequent queries".  Two loops, both here:

* **cost factors** — the transfers are the measurable query parts: the
  engine reports each as a :class:`~repro.core.engine.TransferObservation`
  (tuples, bytes, seconds), and :class:`FeedbackAdapter` folds them into
  the per-tuple transfer factors under an exponential moving average;
* **cardinalities** — the dominant cause of bad plans:
  :class:`CardinalityFeedbackStore` keeps learned cardinalities keyed by
  :func:`~repro.stats.fingerprint.plan_fingerprint`, EMA-smoothed and
  JSON-persistable, trusted while the tables each entry reads are
  unwritten, fed from the row counts a finished execution
  observed per plan node (believing only cursors that provably ran to
  exhaustion — :func:`trusted_nodes`).  What a run learns corrects the
  *next* plan of the same shape, never the running one.

:class:`Learner` is the one interface to both.  It reports to the
:class:`~repro.core.planner.Planner` under one materiality rule
(:func:`shifted`, the store's ``tolerance``): a new fingerprint, a learned
cardinality that moved more than the tolerance, or transfer factors that
re-price an observed transfer by more than it advance the planning epoch;
anything smaller is remembered but leaves cached plans alone — a
converged workload keeps its plan-cache hits.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, replace

from repro.algebra.operators import (
    Difference,
    Join,
    Operator,
    Product,
    Sort,
    TemporalJoin,
    TransferD,
)
from repro.core.engine import ExecutionOutcome, TransferObservation
from repro.obs.instrument import cardinality_observations
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span
from repro.optimizer.algorithms import transfer_d, transfer_m
from repro.optimizer.costs import CostFactors
from repro.stats.collector import RelationStats
from repro.stats.fingerprint import plan_fingerprint, qerror, tables_read


def shifted(new: float, old: float, tolerance: float, floor: float = 0.0) -> bool:
    """The one materiality rule: *new* is off from *old* by more than
    *tolerance* as a ratio, either way (both clamped to *floor* first)."""
    new, old = max(new, floor), max(old, floor)
    if new == old:
        return False
    if min(new, old) <= 0:
        return True
    return max(new / old, old / new) > 1.0 + tolerance


# -- loop 1: transfer timings → cost factors -------------------------------------------


class FeedbackAdapter:
    """Maintains cost factors under an exponential moving average.

    ``smoothing`` is the weight of each new observation (0 < α ≤ 1);
    observations of fewer than ``min_tuples`` tuples are ignored — their
    per-tuple quotient is dominated by fixed round-trip overhead.
    """

    def __init__(self, smoothing: float = 0.3, min_tuples: int = 20):
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self.min_tuples = min_tuples
        self.observations_applied = 0

    def apply(
        self, factors: CostFactors, observations: list[TransferObservation]
    ) -> CostFactors:
        """Return *factors* updated with *observations*.

        Only the per-tuple transfer shares move (the per-byte shares come
        from the calibration's controlled narrow/wide fit; a single live
        query cannot separate the two terms).
        """
        p_tmr = factors.p_tmr
        p_tdr = factors.p_tdr
        for observation in observations:
            if observation.tuples < self.min_tuples:
                continue
            if observation.direction not in ("up", "down"):
                # An unknown direction updates no factor; counting it as
                # applied would misreport the loop's activity.
                continue
            if observation.seconds <= 0:
                # Clock glitches (and synthetic observations) can report
                # non-positive timings; folding them in would drag the EMA
                # toward zero and make transfers look free.
                continue
            observed = max(
                0.0,
                observation.per_tuple_us
                - _per_byte_share(factors, observation),
            )
            if observation.direction == "up":
                p_tmr = (1 - self.smoothing) * p_tmr + self.smoothing * observed
            else:
                p_tdr = (1 - self.smoothing) * p_tdr + self.smoothing * observed
            self.observations_applied += 1
        if p_tmr == factors.p_tmr and p_tdr == factors.p_tdr:
            return factors
        return replace(factors, p_tmr=p_tmr, p_tdr=p_tdr)


def _per_byte_share(factors: CostFactors, observation: TransferObservation) -> float:
    """The microseconds per tuple already explained by the per-byte term."""
    if observation.tuples <= 0:
        return 0.0
    width = observation.bytes / observation.tuples
    if observation.direction == "up":
        return factors.p_tm * width
    return factors.p_td * width


def _transfer_price(factors: CostFactors, observation: TransferObservation) -> float:
    """What the Figure 6 formulas charge for *observation* under *factors*."""
    moved = RelationStats(
        observation.tuples, observation.bytes / max(1, observation.tuples)
    )
    formula = transfer_m if observation.direction == "up" else transfer_d
    return formula(factors, moved)


# -- loop 2: observed row counts → learned cardinalities -------------------------------


@dataclass(frozen=True)
class LearnedCardinality:
    """One feedback-store entry: the running estimate, its support, and
    the ``Table.changes`` of each table it reads when it was learned."""

    cardinality: float
    observations: int
    versions: dict[str, int | None]


class CardinalityFeedbackStore:
    """Learned cardinalities by fingerprint over *db*; thread-safe; persistable.

    ``smoothing`` is the EMA weight of each new observation (the first
    observation seeds the average); ``tolerance`` is the relative change
    below which an update is *immaterial* — the entry still moves, but the
    mutators answer False and the :class:`Learner` leaves the planning
    epoch alone, so converged workloads keep their plan-cache hits.

    An entry is trusted while the tables its fingerprint scans
    (:func:`~repro.stats.fingerprint.tables_read`) hold the contents it was
    learned over (``MiniDB.changes_of``): after anyone's write it reads as
    unknown, and its next observation starts a new average.
    """

    def __init__(self, db, smoothing: float = 0.3, tolerance: float = 0.05):
        self.db = db
        self.smoothing = smoothing
        self.tolerance = tolerance
        self._entries: dict[str, LearnedCardinality] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        """Entries kept, stale ones included: an empty store is one that
        never learned anything."""
        with self._lock:
            return len(self._entries)

    def _fresh(self, fingerprint: str) -> LearnedCardinality | None:
        """*fingerprint*'s entry while its tables are unwritten since."""
        entry = self._entries.get(fingerprint)
        if entry is None or self.db.changes_of(entry.versions) != entry.versions:
            return None
        return entry

    def learned_cardinality(self, fingerprint: str) -> float | None:
        """The current learned cardinality for *fingerprint*, if any."""
        with self._lock:
            entry = self._fresh(fingerprint)
            return entry.cardinality if entry is not None else None

    def observations(self, fingerprint: str) -> int:
        with self._lock:
            entry = self._fresh(fingerprint)
            return entry.observations if entry is not None else 0

    def observe(self, fingerprint: str, actual_rows: float) -> bool:
        """Record one observed cardinality; True when the change was
        material (a new or stale entry, or a shift beyond the tolerance)."""
        actual = max(0.0, float(actual_rows))
        with self._lock:
            entry = self._fresh(fingerprint)
            if entry is None:
                self._adopt(fingerprint, actual, 1)
                return True
            updated = entry.cardinality + self.smoothing * (
                actual - entry.cardinality
            )
            observed = entry.observations + 1
            self._entries[fingerprint] = replace(entry, cardinality=updated, observations=observed)
            # Cardinalities compare clamped to one row, as q-errors do.
            return shifted(updated, entry.cardinality, self.tolerance, floor=1.0)

    def _adopt(self, fingerprint: str, cardinality: float, observations: int) -> None:
        """Start *fingerprint*'s entry over the tables' current contents."""
        versions = self.db.changes_of(tables_read(fingerprint))
        self._entries[fingerprint] = LearnedCardinality(cardinality, observations, versions)

    # -- persistence ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The trusted entries: a stale one would be loaded back as fresh."""
        with self._lock:
            return {
                "version": 1,
                "entries": {
                    fingerprint: {
                        "cardinality": entry.cardinality,
                        "observations": entry.observations,
                    }
                    for fingerprint in self._entries
                    if (entry := self._fresh(fingerprint)) is not None
                },
            }

    def save(self, path: str) -> None:
        """Write the store to *path* atomically (write-then-rename)."""
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        scratch = f"{path}.tmp.{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(scratch, path)

    def load(self, path: str) -> int:
        """Merge entries from *path*, learned over the tables as they are
        now; returns how many were adopted (material iff any were).
        Loaded entries overwrite in-memory ones — the file is a snapshot
        of a longer history."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        entries = payload.get("entries", {})
        with self._lock:
            for fingerprint, fields in entries.items():
                cardinality = float(fields["cardinality"])
                self._adopt(fingerprint, cardinality, int(fields.get("observations", 1)))
        return len(entries)


#: Blocking operators: their algorithm drains the input during ``init``/
#: first pull, so the subtree below ran to exhaustion no matter what
#: happened above.
_BLOCKING = (Sort, TransferD)
#: Operators that may abandon an input before exhausting it (the merge
#: stops when the other side runs dry): observed row counts below them are
#: lower bounds, not cardinalities.
_PARTIAL = (Join, TemporalJoin, Product, Difference)


def trusted_nodes(root: Operator, restore_blocking: bool = True) -> set[int]:
    """ids of the nodes of *root* whose observed row counts equal their
    true cardinality in a completed execution (see module docs).

    With *restore_blocking* (default), a blocking operator re-establishes
    trust below an abandoned join side — it drains its input the moment it
    is pulled at all.  A caller that sees *zero* rows under such a node
    cannot distinguish "drained an empty input" from "never pulled", and
    should re-check against ``restore_blocking=False`` before learning.
    """
    trust: dict[int, bool] = {}

    def visit(node: Operator, trusted: bool) -> None:
        previous = trust.get(id(node))
        trust[id(node)] = trusted if previous is None else (trusted and previous)
        for child in node.inputs:
            if restore_blocking and isinstance(node, _BLOCKING):
                visit(child, True)
            elif isinstance(node, _PARTIAL):
                visit(child, False)
            else:
                visit(child, trusted)

    visit(root, True)
    return {ident for ident, trusted in trust.items() if trusted}


# -- the stage -------------------------------------------------------------------------


class Learner:
    """Both feedback loops behind one interface, reporting to one planner.

    Shared by every executor of its composition root (a
    :class:`~repro.core.tango.Tango`'s one, or each worker's of a query
    service), so there is one running set of cost factors and one store
    however many threads execute.  *config* supplies
    ``adaptive``, ``learn_cardinalities`` and ``feedback_path``; the store
    is loaded from that path here and saved back by :meth:`close`.
    """

    def __init__(self, planner, config, metrics: MetricsRegistry | None = None):
        self.planner = planner
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.adapter = FeedbackAdapter()
        self.store = CardinalityFeedbackStore(planner.db)
        if config.feedback_path:
            try:
                self.store.load(config.feedback_path)
            except FileNotFoundError:
                pass  # first session: nothing learned yet
        self._lock = threading.Lock()
        #: The EMA's running factors, and the planner's factors they were
        #: last reconciled with (recalibration restarts the average).
        self._running = self._stamped = planner.factors
        planner.use_feedback(self.store)

    def observe(self, outcome: ExecutionOutcome, plan: Operator) -> None:
        """Learn from one *completed* engine execution of *plan*."""
        if self.config.adaptive and outcome.observations:
            self._adapt(outcome.observations)
        if self.config.learn_cardinalities and outcome.trace is not None:
            self._harvest(outcome.trace, plan)

    def close(self) -> None:
        """Persist the store's trusted entries to ``config.feedback_path``
        — none too: a write that made every entry stale must not leave the
        last session's entries on disk for the next one to load."""
        if self.config.feedback_path:
            try:
                self.store.save(self.config.feedback_path)
            except OSError:
                self.metrics.counter("feedback_store_save_errors").inc()

    def _adapt(self, observations: list[TransferObservation]) -> None:
        """Fold transfer timings into the running factors; hand them to
        the planner once they drifted materially from the ones the current
        epoch's plans were priced with.

        Drift is judged by what it does to prices, not to the factor: the
        running factors are material when they price one of the transfers
        just observed more than the tolerance away from the planner's.
        (A per-tuple factor the per-byte term leaves nothing for decays
        towards zero by the smoothing weight per query — a 30 % move of a
        number that no longer prices anything.)
        """
        with self._lock:
            stamped = self.planner.factors
            if stamped is not self._stamped:  # recalibrated under us
                self._running = self._stamped = stamped
            updated = self.adapter.apply(self._running, observations)
            if updated is self._running:
                return
            self._running = updated
            self.metrics.counter("feedback_updates").inc()
            if any(
                shifted(
                    _transfer_price(updated, observation),
                    _transfer_price(stamped, observation),
                    self.store.tolerance,
                )
                for observation in observations
            ):
                self._stamped = updated
                self.planner.set_factors(updated)

    def _harvest(self, trace: Span, plan: Operator) -> None:
        """Feed the store from a finished execution's node-bearing spans.

        Only cursors that provably ran to exhaustion are believed (join
        inputs may be abandoned early — their counts are lower bounds);
        zero-row observations under a blocking restore are additionally
        re-checked, since "never pulled" and "drained empty" both read 0.
        """
        trusted = trusted_nodes(plan)
        strict = trusted_nodes(plan, restore_blocking=False)
        estimator = self.planner.estimator
        updates = 0
        for node, actual in cardinality_observations(trace):
            if id(node) not in trusted:
                continue
            if actual == 0 and id(node) not in strict:
                continue
            fingerprint = plan_fingerprint(node)
            if fingerprint is None:
                continue
            estimated = float(estimator.estimate(node).cardinality)
            self.metrics.histogram("qerror").observe(qerror(estimated, actual))
            updates += self.store.observe(fingerprint, actual)
        if updates:
            self.metrics.counter("cardinality_feedback_updates").inc(updates)
        self.planner.learned(updates > 0)
