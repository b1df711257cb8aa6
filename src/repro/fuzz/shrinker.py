"""Delta-debugging reduction of fuzzer failures.

Given a :class:`~repro.fuzz.oracle.FailureReport`, the shrinker searches
for the smallest (tables, plan, config) triple that *still fails the same
way*, re-deriving the failing alternative from the failure's strategy
descriptor after every step (a shrunk query has a different memo; the
alternative must be recomputed, not reused).  Passes, run to a fixpoint
under a probe cap:

1. **config minimization** — prefer the default single-worker,
   chaos-free configuration, then turn knobs back one at a time;
2. **row ddmin** — classic delta debugging over each table's rows
   (remove complements of halves, then quarters, ...);
3. **plan contraction** — replace any operator node with one of its
   inputs (the tree-level analogue of ddmin: a failing 7-node query
   usually hides a failing 2-node one);
4. **table pruning** — drop tables no surviving ``Scan`` references.

The result is a :class:`ShrunkCase`; :meth:`ShrunkCase.to_pytest` emits a
standalone regression test via :mod:`repro.fuzz.codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.algebra.operators import Operator, Scan, TransferM
from repro.algebra.schema import Schema
from repro.dbms.database import MiniDB
from repro.errors import PlanError, ReproError, SchemaError
from repro.fuzz.codegen import emit_pytest
from repro.fuzz.oracle import DEFAULT_CONFIG, ExecConfig, FailureReport, Oracle
from repro.optimizer.physical import validate_plan
from repro.workloads.generator import generate_relation_rows


@dataclass(frozen=True)
class TableData:
    """One concrete table of a shrunk case (spec already materialized)."""

    name: str
    schema: Schema
    rows: tuple[tuple, ...]


@dataclass
class ShrunkCase:
    """A minimal failing reproducer."""

    tables: tuple[TableData, ...]
    initial_plan: Operator
    baseline_plan: Operator
    failing_plan: Operator
    strategy: tuple
    config: ExecConfig
    kind: str
    message: str
    #: Oracle executions the reduction spent.
    probes: int = 0
    #: Update batches of an ``("updates",)`` failure (shrunk alongside).
    updates: tuple = ()
    #: The table those batches target.
    update_table: str | None = None

    @property
    def operator_count(self) -> int:
        """Nodes in the shrunk initial plan, excluding the root transfer."""
        return self.initial_plan.size() - 1

    def describe(self) -> str:
        tables = ", ".join(
            f"{table.name}({len(table.rows)} rows)" for table in self.tables
        )
        text = (
            f"[{self.kind}] strategy={self.strategy} config={self.config}\n"
            f"tables: {tables}\n"
            f"initial plan ({self.operator_count} operators):\n"
            f"{self.initial_plan.pretty()}"
        )
        if self.updates:
            rows = sum(batch.rows for batch in self.updates)
            text += (
                f"\nupdates: {len(self.updates)} batch(es), {rows} rows "
                f"against {self.update_table}"
            )
        return text

    def to_pytest(self, test_name: str = "test_fuzz_reproducer") -> str:
        return emit_pytest(
            [(table.name, table.schema, list(table.rows)) for table in self.tables],
            self.baseline_plan,
            self.failing_plan,
            self.config,
            self.kind,
            self.message,
            self.strategy,
            test_name=test_name,
            updates=self.updates,
            update_table=self.update_table,
        )


@dataclass
class Shrinker:
    """Reduces one failure to a :class:`ShrunkCase`."""

    oracle: Oracle = field(default_factory=Oracle)
    #: Probe budget: total candidate evaluations across all passes.
    max_probes: int = 120

    def shrink(self, failure: FailureReport) -> ShrunkCase:
        tables = tuple(
            TableData(
                spec.name, spec.schema, tuple(generate_relation_rows(spec))
            )
            for spec in failure.case.tables
        )
        plan = failure.case.plan
        config = failure.config
        strategy = failure.strategy
        self._probes = 0
        self._updates = tuple(failure.case.updates)
        self._update_table = failure.case.update_table
        # The original failure is the fallback witness; a fresh probe
        # replaces it with one that carries the derived baseline plan.
        witness = (failure.kind, failure.message, failure.plan, failure.plan)
        initial = self._probe(tables, plan, strategy, config)
        if initial is not None:
            witness = initial

        config, witness = self._shrink_config(tables, plan, strategy, config, witness)
        changed = True
        while changed and self._probes < self.max_probes:
            changed = False
            tables, shrunk = self._shrink_rows(tables, plan, strategy, config)
            if shrunk:
                changed = True
            plan, shrunk = self._shrink_plan(tables, plan, strategy, config)
            if shrunk:
                changed = True
            if self._shrink_updates(tables, plan, strategy, config):
                changed = True
        tables = self._prune_tables(plan, tables)
        # One final probe pins the witness to the fully shrunk case.
        final = self._probe(tables, plan, strategy, config)
        if final is not None:
            witness = final
        kind, message, baseline_plan, failing_plan = witness
        carries_updates = bool(strategy) and strategy[0] == "updates"
        return ShrunkCase(
            tables=tables,
            initial_plan=plan,
            baseline_plan=baseline_plan,
            failing_plan=failing_plan,
            strategy=strategy,
            config=config,
            kind=kind,
            message=message,
            probes=self._probes,
            updates=self._updates if carries_updates else (),
            update_table=self._update_table if carries_updates else None,
        )

    # -- probing -----------------------------------------------------------------------

    def _probe(self, tables, plan, strategy, config):
        if self._probes >= self.max_probes:
            return None
        self._probes += 1
        db = MiniDB()
        for table in tables:
            db.create_table(table.name, table.schema)
            db.table(table.name).bulk_load(list(table.rows))
            db.analyze(table.name)
        try:
            return self.oracle.probe(
                db,
                plan,
                strategy,
                config,
                updates=self._updates,
                update_table=self._update_table,
            )
        except ReproError:
            return None

    # -- passes ------------------------------------------------------------------------

    def _shrink_config(self, tables, plan, strategy, config, witness):
        if config == DEFAULT_CONFIG:
            return config, witness
        candidates = [DEFAULT_CONFIG]
        for single_knob in (
            replace(config, chaos=False, chaos_seed=0),
            replace(config, workers=1),
            replace(config, adaptive=False),
        ):
            if single_knob != config and single_knob not in candidates:
                candidates.append(single_knob)
        for candidate in candidates:
            result = self._probe(tables, plan, strategy, candidate)
            if result is not None:
                return candidate, result
        return config, witness

    def _shrink_rows(self, tables, plan, strategy, config):
        changed = False
        shrunk_tables = list(tables)
        for position, table in enumerate(tables):
            rows = self._ddmin_rows(
                list(table.rows),
                lambda candidate_rows, position=position: self._rows_still_fail(
                    shrunk_tables, position, candidate_rows, plan, strategy, config
                ),
            )
            if len(rows) < len(table.rows):
                shrunk_tables[position] = TableData(
                    table.name, table.schema, tuple(rows)
                )
                changed = True
        return tuple(shrunk_tables), changed

    def _rows_still_fail(self, tables, position, rows, plan, strategy, config):
        candidate = list(tables)
        candidate[position] = TableData(
            tables[position].name, tables[position].schema, tuple(rows)
        )
        return self._probe(tuple(candidate), plan, strategy, config) is not None

    def _ddmin_rows(self, rows, still_fails):
        """Classic ddmin over a row list, bounded by the probe budget."""
        granularity = 2
        while len(rows) >= 2 and self._probes < self.max_probes:
            chunk = max(1, len(rows) // granularity)
            reduced = False
            start = 0
            while start < len(rows) and self._probes < self.max_probes:
                candidate = rows[:start] + rows[start + chunk:]
                if candidate and still_fails(candidate):
                    rows = candidate
                    granularity = max(2, granularity - 1)
                    reduced = True
                else:
                    start += chunk
            if not reduced:
                if chunk == 1:
                    break
                granularity = min(len(rows), granularity * 2)
        return rows

    def _shrink_updates(self, tables, plan, strategy, config) -> bool:
        """Reduce the update stream of an ``("updates",)`` failure.

        First drop whole batches, then ddmin the insert and delete lists
        within each surviving batch.  Candidates are evaluated by swapping
        ``self._updates`` (which :meth:`_probe` forwards to the oracle) —
        a candidate that breaks delete replay simply probes as passing and
        is rejected, so data dependencies shrink away safely.
        """
        if not self._updates or not strategy or strategy[0] != "updates":
            return False
        changed = False

        def still_fails(candidate):
            previous = self._updates
            self._updates = tuple(candidate)
            try:
                return self._probe(tables, plan, strategy, config) is not None
            finally:
                self._updates = previous

        batches = list(self._updates)
        position = 0
        while len(batches) > 1 and position < len(batches):
            if self._probes >= self.max_probes:
                break
            candidate = batches[:position] + batches[position + 1:]
            if still_fails(candidate):
                batches = candidate
                changed = True
            else:
                position += 1

        for position, batch in enumerate(batches):
            for side in ("inserts", "deletes"):
                rows = list(getattr(batch, side))
                if len(rows) < 2 or self._probes >= self.max_probes:
                    continue

                def rows_fail(candidate_rows, position=position, side=side):
                    trimmed = replace(
                        batches[position], **{side: tuple(candidate_rows)}
                    )
                    return still_fails(
                        batches[:position] + [trimmed] + batches[position + 1:]
                    )

                shrunk = self._ddmin_rows(rows, rows_fail)
                if len(shrunk) < len(rows):
                    batches[position] = replace(
                        batches[position], **{side: tuple(shrunk)}
                    )
                    batch = batches[position]
                    changed = True

        if changed:
            self._updates = tuple(batches)
        return changed

    def _shrink_plan(self, tables, plan, strategy, config):
        changed = False
        progress = True
        while progress and self._probes < self.max_probes:
            progress = False
            for candidate in self._contractions(plan):
                if self._probe(tables, candidate, strategy, config) is not None:
                    plan = candidate
                    changed = True
                    progress = True
                    break
        return plan, changed

    def _contractions(self, plan):
        """Structurally smaller variants: each node replaced by one input.

        The root ``T^M`` is kept — every executable case ends in one.
        """
        if not isinstance(plan, TransferM):
            return
        for variant in self._contract(plan.input):
            candidate = TransferM(variant)
            try:
                validate_plan(candidate)
            except (PlanError, SchemaError):
                continue
            yield candidate

    def _contract(self, node: Operator):
        if isinstance(node, Scan):
            return
        # Replace this node by any input with the same location.
        for child in node.inputs:
            if child.location is node.location or isinstance(child, Scan):
                yield child
        # Or contract within one input, keeping this node.
        for position, child in enumerate(node.inputs):
            for variant in self._contract(child):
                inputs = list(node.inputs)
                inputs[position] = variant
                try:
                    yield node.with_inputs(*inputs)
                except (PlanError, SchemaError):
                    continue

    def _prune_tables(self, plan, tables):
        referenced = {
            node.table for node in plan.walk() if isinstance(node, Scan)
        }
        kept = tuple(table for table in tables if table.name in referenced)
        return kept if kept else tables
