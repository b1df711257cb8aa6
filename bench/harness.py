"""One workload, one process: the timed run and the traced run.

``run_timed`` produces the end-to-end metrics with tracing off.
``run_traced`` replays operations through the staged driver and the
program's own published instrumentation and produces the per-layer table.
Both check every output against the workload's oracle, outside the timed
regions, and count any mismatch, exception, refusal or leak as a failed
operation.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median

from bench import stats
from bench.metrics import END_TO_END, PER_LAYER
from bench.spans import SpanRecorder, bucket_of, fold_explain, self_times, write_trace
from bench.workloads import Workload, make, signature, timed

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Operations replayed by each pass of the traced run.
TRACED_OPS = 30
#: ``--smoke``: seconds measured per workload, and operations per traced pass.
SMOKE_SECONDS, SMOKE_TRACED_OPS = 3.0, 6


@dataclass
class Outcome:
    """What one run reports; ``to_contract`` is the driver's last line."""

    workload: str
    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def set_metrics(self, values: dict, declared) -> None:
        units = {metric.name: metric.unit for metric in declared}
        self.metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        }

    def to_contract(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            **self.to_contract(),
            "problems": self.problems,
            "detail": self.detail,
        }


class Driver:
    """Closed-loop clients over one workload, with failure accounting."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.next_index = [0] * workload.clients
        self.attempted = 0
        self.errors: list[str] = []
        #: op key → Counter of the row-count signatures seen.
        self.seen: dict = defaultdict(Counter)
        self._lock = threading.Lock()

    def run(
        self,
        call,
        seconds: float | None = None,
        max_ops: int | None = None,
        keep: bool = True,
        clients: int | None = None,
    ) -> list:
        """Drive ``call(index, client) -> (payload, latency or None)`` from
        every client until the deadline or *max_ops* operations.  Returns
        ``(seconds, payload)`` for each operation that succeeded; a None
        latency is replaced by the wall time measured here.  With
        ``keep=False`` payloads are dropped once checked, so a long run
        does not hold every result in memory; *clients* overrides the
        workload's client count."""
        deadline = None if seconds is None else time.perf_counter() + seconds
        budget = [max_ops]
        clients = clients or self.workload.clients
        if clients == 1:
            return self._client(0, call, deadline, budget, keep)
        collected: list[list] = [[] for _ in range(clients)]

        def client_main(client: int) -> None:
            collected[client] = self._client(client, call, deadline, budget, keep)

        threads = [
            threading.Thread(target=client_main, args=(client,), name=f"bench-client-{client}")
            for client in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [sample for samples in collected for sample in samples]

    def _client(self, client: int, call, deadline, budget, keep: bool) -> list:
        workload = self.workload
        samples = []
        while not workload.exhausted:
            with self._lock:
                if budget[0] is not None:
                    if budget[0] <= 0:
                        break
                    budget[0] -= 1
                index = self.next_index[client]
                self.next_index[client] += 1
                self.attempted += 1
            begin = time.perf_counter()
            try:
                payload, latency = call(index, client)
            except Exception as error:  # a failed op must not end the run
                end = time.perf_counter()
                with self._lock:
                    self.errors.append(f"op {index}: {type(error).__name__}: {error}")
            else:
                end = time.perf_counter()
                seconds = latency if latency is not None else end - begin
                samples.append((seconds, payload if keep else None))
                key = workload.op_key(index, client)
                if key is not None and isinstance(payload, list):
                    with self._lock:
                        self.seen[key][signature(payload)] += 1
            if deadline is not None and end >= deadline:
                break
        return samples

    def mismatched(self, expected: dict) -> int:
        """Operations whose row counts differ from the oracle's."""
        return sum(
            count
            for key, signatures in self.seen.items()
            for seen_signature, count in signatures.items()
            if key in expected and seen_signature != expected[key]
        )


def hit_ratio(before: dict, after: dict) -> float | None:
    hits = after.get("plan_cache_hits", 0) - before.get("plan_cache_hits", 0)
    misses = after.get("plan_cache_misses", 0) - before.get("plan_cache_misses", 0)
    return hits / (hits + misses) if hits + misses else None


def check_plan_cache(workload: Workload, ratio: float | None) -> list[str]:
    """The validity check: warm workloads hit, the cold one always misses."""
    if workload.plan_cache == "warm" and (ratio is None or ratio < 0.99):
        return [f"invalid run: plan-cache hit ratio {ratio} < 0.99 on a warm workload"]
    if workload.plan_cache == "cold" and ratio != 0:
        return [f"invalid run: plan-cache hit ratio {ratio} != 0 on the cold workload"]
    return []


def counted_pass(workload: Workload, driver: Driver) -> dict:
    """A fixed number of operations from one client, one at a time, so that
    every count repeats exactly."""
    ops = workload.counted_ops
    counters = workload.counters()
    dbms, middleware = workload.ticks()
    strategies = dict(workload.strategies)
    samples = driver.run(workload.op, max_ops=ops, clients=1)
    after = workload.counters()
    dbms_after, middleware_after = workload.ticks()
    results = [result for _, payload in samples for result in payload]

    def per_op(name: str) -> float:
        return (after.get(name, 0) - counters.get(name, 0)) / ops

    refreshes = {
        strategy: count - strategies.get(strategy, 0)
        for strategy, count in workload.strategies.items()
    }
    result_rows = sum(len(result.rows) for result in results) / ops
    fetched = per_op("dbms_rows_fetched")
    return {
        "ticks_per_op": (dbms_after - dbms + middleware_after - middleware) / ops,
        "dbms.ticks_per_op": (dbms_after - dbms) / ops,
        "xxl.mw_ticks_per_op": (middleware_after - middleware) / ops,
        "optimizer.memo_classes": sum(r.class_count or 0 for r in results) / ops,
        "optimizer.memo_elements": sum(r.element_count or 0 for r in results) / ops,
        "dbms.round_trips": per_op("dbms_round_trips"),
        "dbms.rows_fetched": fetched,
        "dbms.rows_loaded": per_op("dbms_rows_loaded"),
        "dbms.bytes_fetched": per_op("dbms_bytes_fetched"),
        "dbms.rows_fetched_per_result_row": fetched / result_rows if result_rows else 0.0,
        "views.incremental_ratio": (
            refreshes.get("incremental", 0) / sum(refreshes.values()) if refreshes else 0.0
        ),
    }


def finish(workload: Workload, driver: Driver, outcome: Outcome) -> float:
    """Oracle, leak check and failure accounting → seconds spent on them."""
    begin = time.perf_counter()
    verdict = workload.verify()
    leaks = workload.close()
    verify_seconds = time.perf_counter() - begin
    mismatched = driver.mismatched(verdict.expected)
    outcome.attempted += driver.attempted + verdict.checked
    outcome.failed += len(driver.errors) + mismatched + len(verdict.problems) + len(leaks)
    outcome.problems += driver.errors[:5] + verdict.problems + leaks
    if mismatched:
        outcome.problems.append(f"{mismatched} operations returned unexpected row counts")
    return verify_seconds


# ------------------------------------------------------------------------------------
# The timed run: end-to-end metrics, tracing off
# ------------------------------------------------------------------------------------


def repeated_setup(name: str, seed: int, seconds: float, outcome: Outcome):
    """Set up ``SETUP_REPEATS`` times → (the last instance, each set-up's
    seconds at reference speed)."""
    durations = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            leaks = workload.close()
            outcome.failed += len(leaks)
            outcome.problems += leaks
            workload = None
            gc.collect()
        workload = make(name, seed, seconds=seconds)
        reference = stats.ref_samples(2)
        elapsed, _ = timed(workload.setup)
        reference += stats.ref_samples(2)
        durations.append(elapsed / stats.speed_factor(reference))
    return workload, durations


def run_timed(name: str, seed: int, seconds: float, smoke: bool = False) -> Outcome:
    outcome = Outcome(name, seed, trace=False)
    workload, setups = repeated_setup(name, seed, seconds, outcome)
    driver = Driver(workload)
    counters_before = workload.counters()
    counts = counted_pass(workload, driver)

    # Rounds are short and each is bracketed by reference-kernel samples,
    # shared with its neighbours: the machine changes speed within seconds,
    # so a round is divided by the speed measured right beside it.
    budget = SMOKE_SECONDS if smoke else seconds
    latencies: list[float] = []
    timed_seconds = measured = 0.0
    reference_all: list[float] = []
    rounds = 0
    edge = stats.ref_samples(workload.ref_samples)
    while not workload.exhausted and (
        measured < budget
        # A slow machine must not starve p90 of its sample floor.
        or (not smoke and len(latencies) < stats.P90_MIN_SAMPLES and measured < 2 * budget)
    ):
        wall, samples = timed(
            lambda: driver.run(workload.op, seconds=workload.round_seconds, keep=False)
        )
        after = stats.ref_samples(workload.ref_samples)
        reference_all += after
        measured += wall
        samples, wall = stats.normalise_round(
            [sample for sample, _ in samples], wall, edge + after
        )
        edge = after
        latencies += samples
        timed_seconds += wall
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome.problems += check_plan_cache(
        workload, hit_ratio(counters_before, workload.counters())
    )
    verify_seconds = finish(workload, driver, outcome)

    p90 = stats.p90(latencies)
    if not smoke and p90 is None:
        outcome.problems.append(
            f"only {len(latencies)} samples: below the p90 floor of {stats.P90_MIN_SAMPLES}"
        )
    outcome.set_metrics(
        {
            "setup_s": median(setups),
            "latency_p50_ms": median(latencies) * 1e3 if latencies else None,
            "latency_p90_ms": p90 * 1e3 if p90 is not None else None,
            "throughput_ops_s": len(latencies) / timed_seconds if timed_seconds else None,
            "ticks_per_op": counts["ticks_per_op"],
            "peak_rss_mb": peak_rss_mb,
        },
        END_TO_END,
    )
    outcome.detail = {
        "samples": len(latencies),
        "rounds": rounds,
        "round_seconds": workload.round_seconds,
        "clients": workload.clients,
        "size": workload.size,
        "setup_runs_s": setups,
        "ref_kernel_ms": median(reference_all) if reference_all else None,
        "verify_s": verify_seconds,
        "counts": counts,
    }
    return outcome


# ------------------------------------------------------------------------------------
# The traced run: per-layer metrics
# ------------------------------------------------------------------------------------


def trace_ms(results, name: str | None = None, kind: str | None = None, **attributes) -> float:
    """Milliseconds inside the matching spans of the results' published
    traces (``QueryResult.trace`` under ``TangoConfig(tracing=True)``)."""
    total = 0.0
    for result in results:
        trace = getattr(result, "trace", None)
        if trace is None:
            continue
        for span in trace.iter():
            if name is not None and span.name != name:
                continue
            if kind is not None and span.kind != kind:
                continue
            if any(span.attributes.get(k) != v for k, v in attributes.items()):
                continue
            total += span.elapsed_seconds * 1e3
    return total


def median_ms(samples) -> float:
    return median([seconds for seconds, _ in samples]) * 1e3 if samples else 0.0


def explain_layers(reports: list, ops: int) -> dict:
    """The split inside ``execute_plan``, as EXPLAIN ANALYZE tells it.

    *reports*: ``(plain seconds, explain seconds, report)`` over *ops*
    operations."""
    layer: dict[str, float] = {}
    rows = [row for _, _, report in reports for row in report]
    for bucket, value in fold_explain(rows).items():
        layer[bucket] = value / ops
    layer.pop("other_ms", None)
    operators = [row for row in rows if row.actual_self_us and bucket_of(row.algorithm)]
    busy_seconds = sum(row.actual_self_us for row in operators) / 1e6
    if busy_seconds:
        layer["xxl.rows_per_s"] = sum(row.actual_rows for row in operators) / busy_seconds
    errors = [row.qerror for row in rows if row.qerror is not None]
    if errors:
        layer["stats.qerror_p50"] = median(errors)
        layer["stats.qerror_max"] = max(errors)
    # The engine's own share: the execution minus its root operators.
    layer["core.engine.drain_self_ms"] = sum(
        max(
            0.0,
            report.actual_seconds * 1e3
            - sum(row.actual_total_us or 0.0 for row in report if row.depth == 0) / 1e3,
        )
        for _, _, report in reports
    ) / ops
    plain = sum(plain for plain, _, _ in reports)
    if plain:
        layer["obs.explain_overhead_ratio"] = (
            sum(explained for _, explained, _ in reports) - plain
        ) / plain
    return layer


def run_traced(
    name: str, seed: int, seconds: float, smoke: bool = False, trace_path=None
) -> Outcome:
    outcome = Outcome(name, seed, trace=True)
    layer = {metric.name: 0.0 for metric in PER_LAYER}
    ops = SMOKE_TRACED_OPS if smoke else TRACED_OPS
    #: Each pass stops at its operation count or its share of the run time.
    share = max(1.0, seconds / 6.0)

    workload = make(name, seed, seconds=seconds)
    workload.setup()
    driver = Driver(workload)
    reference = stats.ref_samples()
    counters_before = workload.counters()
    counts = counted_pass(workload, driver)
    layer.update({key: value for key, value in counts.items() if key in layer})

    # The same operations untraced, in this process: the base that every
    # overhead ratio below is taken against.
    base_ms = median_ms(driver.run(workload.op, seconds=share, max_ops=ops))
    ratio = hit_ratio(counters_before, workload.counters())
    layer["core.plan_cache.hit_ratio"] = ratio if ratio is not None else 0.0
    outcome.problems += check_plan_cache(workload, ratio)

    # The staged driver: a span around every public call.
    recorders = [SpanRecorder(thread=client) for client in range(workload.clients)]
    staged = driver.run(
        lambda index, client: workload.staged_op(index, recorders[client], client),
        seconds=share,
        max_ops=ops,
        keep=False,
    )
    staged_ops = max(1, len(staged))
    spent: dict[str, float] = {}
    for recorder in recorders:
        for span_name, value in self_times(recorder.spans).items():
            spent[span_name] = spent.get(span_name, 0.0) + value * 1e3 / staged_ops
    for span_name, metric in (
        ("core.parser.parse", "core.parser.parse_ms"),
        ("optimizer.optimize", "optimizer.optimize_ms"),
        ("core.plan_cache.hit", "core.plan_cache.hit_ms"),
        ("core.engine.execute", "core.engine.execute_ms"),
        ("dbms.direct_sql", "dbms.direct_sql_ms"),
        ("views.apply_updates", "views.apply_updates_ms"),
        ("views.refresh", "views.refresh_ms"),
        ("views.read", "views.read_ms"),
    ):
        layer[metric] = spent.get(span_name, 0.0)
    if layer["optimizer.optimize_ms"] and layer["optimizer.memo_elements"]:
        layer["optimizer.us_per_element"] = (
            layer["optimizer.optimize_ms"] * 1e3 / layer["optimizer.memo_elements"]
        )
    staged_ms = median(
        [s.duration for r in recorders for s in r.spans if s.name == "op"] or [0.0]
    ) * 1e3
    if base_ms:
        layer["bench.staged_overhead_ratio"] = (staged_ms - base_ms) / base_ms
    if "core.engine.execute" in spent:
        # What Tango.run() costs beyond the optimize and execute_plan calls
        # that the staged driver makes in its place.
        layer["core.tango.facade_self_ms"] = base_ms - sum(
            value for span_name, value in spent.items() if span_name != "op"
        )
    layer["bench.samples"] = float(len(staged))

    layer.update(workload.layer_extras(ops, base_ms, layer))

    reports: list = []
    explained_ops = 0
    deadline = time.perf_counter() + share
    while explained_ops < min(ops, 8) and time.perf_counter() < deadline:
        found = workload.explain_reports(explained_ops)
        if not found:
            break
        reports += found
        explained_ops += 1
    if reports:
        layer.update(explain_layers(reports, explained_ops))
    layer["core.engine.rows_per_batch"] = (
        workload.histograms().get("rows_per_batch", {}).get("mean", 0.0)
    )
    layer["optimizer.regret_ticks_x"] = workload.regret()

    # The tracing twin: the same workload under TangoConfig(tracing=True).
    twin = make(name, seed, tracing=True, seconds=seconds)
    twin.setup()
    twin_driver = Driver(twin)
    traced = twin_driver.run(twin.op, seconds=share, max_ops=ops)
    if base_ms and traced:
        layer["obs.tracing_overhead_ratio"] = (median_ms(traced) - base_ms) / base_ms
    traced_results = [result for _, payload in traced for result in payload]
    twin_ops = max(1, len(traced))
    layer["core.engine.translate_ms"] = trace_ms(traced_results, name="translate") / twin_ops
    layer["dbms.transfer_m_ms"] = (
        trace_ms(traced_results, kind="transfer", direction="up") / twin_ops
    )
    layer["dbms.transfer_d_ms"] = (
        trace_ms(traced_results, kind="transfer", direction="down") / twin_ops
    )
    leaks = twin.close()
    outcome.attempted += twin_driver.attempted
    outcome.failed += len(twin_driver.errors) + len(leaks)
    outcome.problems += twin_driver.errors[:5] + leaks

    # Calls no workload makes, on a scratch instance over the same data.
    scratch = workload.scratch_tango()
    try:
        layer["stats.refresh_ms"] = timed(scratch.refresh_statistics)[0] * 1e3
        layer["optimizer.calibrate_s"] = timed(scratch.calibrate)[0]
    finally:
        scratch.close()

    reference += stats.ref_samples()
    layer["bench.ref_kernel_ms"] = median(reference)
    layer["bench.verify_s"] = finish(workload, driver, outcome)

    if trace_path is not None:
        write_trace(trace_path, name, seed, recorders)
    outcome.set_metrics(layer, PER_LAYER)
    outcome.detail = {"traced_ops": len(staged), "size": workload.size, "counts": counts}
    return outcome
