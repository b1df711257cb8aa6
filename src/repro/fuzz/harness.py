"""The budgeted fuzzing driver behind ``python -m repro.fuzz``.

The budget is counted in *oracle executions* (one plan run = one unit),
not in cases: a case with many sampled alternatives spends more of the
budget, which is the resource that actually costs wall time.  Every
failure is shrunk immediately and written to the output directory as a
ready-to-paste pytest module (shrinking probes do not count against the
fuzzing budget — a found bug is always worth reducing).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.generator import QueryGenerator
from repro.fuzz.oracle import Oracle
from repro.fuzz.shrinker import Shrinker, ShrunkCase


@dataclass
class FuzzReport:
    """Outcome of one harness run."""

    seed: int
    budget: int
    cases_run: int = 0
    executions: int = 0
    failures: list[ShrunkCase] = field(default_factory=list)
    reproducer_paths: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"repro.fuzz seed={self.seed} budget={self.budget}: "
            f"{self.cases_run} cases, {self.executions} plan executions, "
            f"{len(self.failures)} failure(s) in {self.elapsed_seconds:.1f}s"
        ]
        for position, shrunk in enumerate(self.failures):
            lines.append("")
            lines.append(shrunk.describe())
            if position < len(self.reproducer_paths):
                lines.append(f"reproducer written to {self.reproducer_paths[position]}")
        return "\n".join(lines)


@dataclass
class FuzzHarness:
    """Runs generated cases through the oracle until the budget is spent."""

    seed: int = 0
    budget: int = 200
    out_dir: str | None = None
    #: Stop early after this many distinct failures.
    max_failures: int = 5
    shrink: bool = True
    #: Cross adaptive execution (cardinality learning) into the oracle's
    #: configuration matrix.
    adaptive_axis: bool = True
    #: Generate mutate-then-refresh cases and check materialized-view
    #: incremental refresh against a scratch recomputation.
    updates_axis: bool = True

    def run(self) -> FuzzReport:
        began = time.perf_counter()
        generator = QueryGenerator(seed=self.seed, updates=self.updates_axis)
        oracle = Oracle(
            adaptive_axis=self.adaptive_axis,
            updates_axis=self.updates_axis,
        )
        rng = random.Random(f"repro.fuzz.harness:{self.seed}")
        report = FuzzReport(seed=self.seed, budget=self.budget)
        index = 0
        while (
            oracle.executions < self.budget
            and len(report.failures) < self.max_failures
        ):
            case = generator.case(index)
            index += 1
            report.cases_run += 1
            failure = oracle.check_case(case, rng)
            if failure is None:
                continue
            if self.shrink:
                shrunk = Shrinker(oracle=Oracle()).shrink(failure)
            else:
                shrunk = Shrinker(oracle=Oracle(), max_probes=1).shrink(failure)
            report.failures.append(shrunk)
            path = self._write_reproducer(shrunk, case.index)
            if path is not None:
                report.reproducer_paths.append(path)
        report.executions = oracle.executions
        report.elapsed_seconds = time.perf_counter() - began
        return report

    def _write_reproducer(self, shrunk: ShrunkCase, case_index: int) -> str | None:
        if self.out_dir is None:
            return None
        directory = Path(self.out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"test_repro_seed{self.seed}_case{case_index}.py"
        path.write_text(
            shrunk.to_pytest(test_name=f"test_repro_seed{self.seed}_case{case_index}")
        )
        return str(path)
