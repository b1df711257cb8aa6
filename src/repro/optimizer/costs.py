"""The cost factors and the whole-plan coster.

The Figure 6 formulas themselves are one column of
:data:`repro.optimizer.algorithms.ALGORITHMS`; the factors they weigh
``size(r)`` with are fitted by :mod:`repro.optimizer.calibration`.  Return
values are microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import Location, Operator, TransferM
from repro.optimizer.algorithms import ALGORITHMS
from repro.stats.cardinality import CardinalityEstimator

_M, _D = Location.MIDDLEWARE, Location.DBMS


@dataclass(frozen=True)
class CostFactors:
    """Calibrated weights for the cost formulas (microseconds per byte,
    unless noted).  Defaults are rough pure-Python magnitudes; run
    :class:`repro.optimizer.calibration.Calibrator` to fit them to the
    current machine and DBMS."""

    # Figure 6 factors.  Section 3.2: transfer performance "depends on the
    # number and size of the tuples transferred" — hence both a per-tuple
    # and a per-byte coefficient for the transfer algorithms.
    p_tm: float = 0.030      # TRANSFER^M per byte moved
    p_tmr: float = 1.0       # TRANSFER^M per tuple moved
    p_td: float = 0.050      # TRANSFER^D per byte loaded
    p_tdr: float = 0.5       # TRANSFER^D per tuple loaded
    p_sem: float = 0.010     # FILTER^M per byte per predicate-complexity unit
    p_taggm1: float = 0.020  # TAGGR^M per input byte (includes internal sort)
    p_taggm2: float = 0.010  # TAGGR^M per output byte
    p_taggd1: float = 2.0    # TAGGR^D per input byte (the SQL rewrite)
    p_taggd2: float = 0.20   # TAGGR^D per output byte
    # Middleware algorithms beyond Figure 6 (shapes from [20]).
    p_sortm: float = 0.004   # SORT^M per byte per log2(cardinality)
    p_joinm: float = 0.015   # middleware merge join per byte touched
    p_tjoinm: float = 0.020  # middleware temporal join per byte touched
    p_projm: float = 0.004   # middleware projection per byte
    p_dedupm: float = 0.010  # middleware duplicate elimination per byte
    p_coalm: float = 0.012   # middleware coalescing per byte
    p_diffm: float = 0.010   # middleware difference per byte
    # Generic DBMS formulas.
    p_scand: float = 0.004   # full table scan per byte
    p_sortd: float = 0.002   # DBMS sort per byte per log2(cardinality)
    p_joind: float = 0.010   # generic DBMS join per byte touched
    p_prodd: float = 0.008   # Cartesian product per output byte
    # Parallel execution (beyond Figure 6): fixed per-partition startup —
    # thread dispatch, extra connection, per-partition statement — charged
    # once per partition, so serial plans keep winning on small inputs.
    p_par_startup: float = 500.0  # microseconds per partition


class PlanCoster:
    """Estimates the total cost of a complete logical plan tree.

    Walks the tree once; each node contributes its algorithm's ``cost``
    column, which reads the statistics it needs off the
    :class:`~repro.stats.cardinality.CardinalityEstimator`.

    With ``parallel_degree > 1`` the ``TRANSFER^M`` formula gains the
    parallel terms ``startup · d + cost / d`` — per-partition scaling plus a
    fixed startup per partition — because the fetch is the one step that
    fans out: its partitions overlap on the wire, while every middleware
    algorithm above it runs serially on the caller's thread and is charged
    unchanged.  ``parallel_degree=1`` reproduces the serial formulas
    exactly.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        factors: CostFactors | None = None,
        parallel_degree: int = 1,
    ):
        self.estimator = estimator
        self.factors = factors or CostFactors()
        self.parallel_degree = max(1, parallel_degree)

    def _parallel(self, cost: float) -> float:
        """The parallel cost of a fetch costing *cost* serially."""
        degree = self.parallel_degree
        if degree <= 1:
            return cost
        return self.factors.p_par_startup * degree + cost / degree

    def cost(self, plan: Operator) -> float:
        """Total estimated cost of *plan* in microseconds."""
        total = self.node_cost(plan)
        for child in plan.inputs:
            total += self.cost(child)
        return total

    def breakdown(self, plan: Operator) -> list[tuple[str, float]]:
        """(node label, node cost) pairs in pre-order — ``explain`` fodder."""
        rows = [(plan.describe(), self.node_cost(plan))]
        for child in plan.inputs:
            rows.extend(self.breakdown(child))
        return rows

    def node_cost(self, plan: Operator) -> float:
        """Cost of one node, excluding its subtree."""
        row = ALGORITHMS.get((type(plan), plan.location))
        if row is None:
            # No algorithm here — the ``Coalesce^D`` of a view's Section 3.1
            # plan, which ``ViewManager.choose`` prices as it stands: borrow
            # the price of the operator's algorithm on the other side, where
            # the search (rule X1) puts it.
            row = ALGORITHMS[type(plan), _M if plan.location is _D else _D]
        cost = row.cost(self.factors, plan, self.estimator)
        return self._parallel(cost) if type(plan) is TransferM else cost
