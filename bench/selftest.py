"""``python3 -m bench selftest`` — the harness checks itself (no pytest).

Covers the percentile floor, round normalisation on synthetic two-speed
data, the span self-time fold, the EXPLAIN ANALYZE prefix fold, the result
schema round trip, ``compare``'s verdicts, and two facts about this package:
it imports only the public surface it promised to, and ``BENCHMARK.json``
repeats ``bench/metrics.py`` exactly.
"""

from __future__ import annotations

import ast
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

from bench import report, stats
from bench.metrics import END_TO_END, PER_LAYER, Metric
from bench.spans import BenchSpan, SpanRecorder, fold_explain, self_times

PACKAGE = Path(__file__).resolve().parent

#: The program's public surface this package may import.
ALLOWED_IMPORTS = {
    "repro.core.tango": {"Tango", "TangoConfig"},
    "repro.dbms.database": {"MiniDB"},
    "repro.dbms.loader": {"DirectPathLoader"},
    "repro.algebra.builder": {"scan"},
    "repro.algebra.schema": None,
    "repro.workloads": {"queries", "uis", "generator"},
    "repro.workloads.uis": None,
    "repro.workloads.queries": None,
    "repro.workloads.generator": None,
    "repro.service": {"QueryService", "ServiceConfig", "TenantSpec"},
    "repro.fuzz.compare": {"canonical_rows"},
}


def check_percentile_floor() -> None:
    assert stats.p90(list(range(99))) is None, "p90 must refuse 99 samples"
    assert stats.p90(list(range(100))) is not None
    assert abs(stats.percentile(list(range(101)), 0.90) - 90.0) < 1e-9
    assert stats.percentile([5.0], 0.5) == 5.0
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)


def check_normalisation() -> None:
    # The same work in a round at nominal speed and in one 25 % slower.
    work = [0.020, 0.021, 0.019, 0.020, 0.022]
    fast, fast_wall = stats.normalise_round(work, 2.0, [10.0] * 8)
    slow, slow_wall = stats.normalise_round(
        [sample * 1.25 for sample in work], 2.5, [12.5] * 8
    )
    assert all(abs(a - b) < 1e-12 for a, b in zip(fast, slow))
    assert abs(fast_wall - slow_wall) < 1e-12
    assert abs(stats.speed_factor([12.5, 12.5, 10.0, 12.5]) - 1.25) < 1e-12
    assert 0.5 < stats.ref_kernel_ms() < 500.0


def check_span_fold() -> None:
    #  op [0, 10]: a [1, 4], b [3, 8] (overlapping a), c [5, 6] inside b.
    spans = [
        BenchSpan(0, "op", 0, None, 0.0, 10.0),
        BenchSpan(1, "a", 0, 0, 1.0, 4.0),
        BenchSpan(2, "b", 0, 0, 3.0, 8.0),
        BenchSpan(3, "c", 0, 2, 5.0, 6.0),
    ]
    own = self_times(spans)
    assert abs(own["op"] - 3.0) < 1e-12, own  # 10 minus the cover [1, 8]
    assert abs(own["a"] - 3.0) < 1e-12 and abs(own["b"] - 4.0) < 1e-12
    assert abs(own["c"] - 1.0) < 1e-12
    recorder = SpanRecorder(thread=3)
    with recorder.span("op", 7):
        with recorder.span("inner", 7):
            pass
    outer, inner = recorder.spans
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert recorder.to_dicts()[1]["op"] == 7 and recorder.to_dicts()[1]["thread"] == 3


def check_explain_fold() -> None:
    def row(algorithm, self_us):
        return SimpleNamespace(algorithm=algorithm, actual_self_us=self_us)

    folded = fold_explain(
        [
            row("TAGGR^M", 2000.0),
            row("FILTER^M", 500.0),
            row("PROJECT^M", 250.0),
            row("TJOIN^M", 1000.0),
            row("JOIN^M", 100.0),
            row("SORT^M", 300.0),
            row("TRANSFER^M", 9000.0),
            row("EXCHANGE", None),
        ]
    )
    assert folded == {
        "xxl.taggr_self_ms": 2.0,
        "xxl.filter_project_self_ms": 0.75,
        "xxl.tjoin_self_ms": 1.0,
        "xxl.merge_join_self_ms": 0.1,
        "xxl.sort_self_ms": 0.3,
        "other_ms": 9.0,
    }, folded


def check_result_schema() -> None:
    from bench.harness import Outcome

    outcome = Outcome("taggr_scan", 1, trace=False, attempted=10)
    outcome.set_metrics(
        {metric.name: 1.5 for metric in END_TO_END}, END_TO_END
    )
    contract = json.loads(json.dumps(outcome.to_contract()))
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["correct"] is True and contract["attempted"] == 10
    assert set(contract["metrics"]) == {metric.name for metric in END_TO_END}
    assert contract["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "result.json"
        report.dump(path, {"seed": 1}, [outcome.to_dict(), outcome.to_dict()])
        document = report.load(path)
    assert document["schema"] == report.SCHEMA and len(document["runs"]) == 2
    assert report.values_of(document, 0)["taggr_scan"]["setup_s"] == [1.5, 1.5]
    assert report.values_of(document, 1) == {}


def check_verdicts() -> None:
    lower = Metric("latency", "ms", "lower", 0.05)
    higher = Metric("throughput", "1/s", "higher", 0.05)
    steady = [100.0, 100.5, 99.5, 100.2]
    assert report.verdict(lower, steady, [100.1, 100.4, 99.8])[0] == "unchanged"
    assert report.verdict(lower, steady, [110.0, 111.0, 109.5])[0] == "regressed"
    assert report.verdict(lower, steady, [90.0, 91.0, 89.5])[0] == "improved"
    assert report.verdict(higher, steady, [90.0, 91.0, 89.5])[0] == "regressed"
    assert report.verdict(higher, steady, [110.0, 111.0, 109.5])[0] == "improved"
    # Within the bound, only five separated runs a side make a gain.
    assert report.verdict(lower, steady, [98.0, 98.2, 97.9])[0] == "unchanged"
    five = [100.0, 100.5, 99.5, 100.2, 100.1]
    assert report.verdict(lower, five, [98.0, 98.2, 97.9, 98.1, 98.3])[0] == "improved"
    noisy = [100.0, 120.0, 90.0, 110.0]
    assert report.verdict(lower, noisy, [105.0, 95.0, 115.0])[0] == "unresolved"
    assert report.verdict(lower, noisy, [60.0, 62.0, 61.0])[0] == "improved"


def check_public_surface() -> None:
    """bench/ imports the promised surface only, touches no underscore name
    of anything but itself, and constructs default configurations only."""
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            where = f"{source.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("repro"), f"{where}: import {alias.name}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                assert node.module in ALLOWED_IMPORTS, f"{where}: imports {node.module}"
                allowed = ALLOWED_IMPORTS[node.module]
                names = {alias.name for alias in node.names}
                assert allowed is None or names <= allowed, f"{where}: {names - allowed}"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "TangoConfig":
                keywords = [(k.arg, getattr(k.value, "value", None)) for k in node.keywords]
                assert not node.args and keywords in ([], [("tracing", True)]), (
                    f"{where}: non-default TangoConfig"
                )
            elif isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                own = getattr(node.value, "id", "") in ("self", "cls")
                assert not private or own, f"{where}: underscore access .{node.attr}"
                if source.name == "workloads.py":
                    # Timing-derived cost factors would make plan choice,
                    # hence every metric, bimodal.
                    assert node.attr != "calibrate", f"{where}: workloads must not calibrate"


def check_benchmark_json() -> None:
    """BENCHMARK.json must repeat bench/metrics.py and the workload list."""
    from bench.__main__ import DEFAULT_SECONDS, WORKLOAD_NAMES
    from bench.workloads import WORKLOADS

    assert tuple(WORKLOADS) == WORKLOAD_NAMES, "the CLI and workloads.py list different workloads"
    path = PACKAGE.parent / "BENCHMARK.json"
    if not path.exists():
        raise AssertionError(f"{path} is missing")
    declared = json.loads(path.read_text())
    assert declared["paths"] == ["bench"]
    assert declared["command"] == ["python3", "-m", "bench", "run"]
    assert declared["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in (*END_TO_END, *PER_LAYER)] + list(WORKLOAD_NAMES)
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(m.bound is not None and 0 < m.bound <= 0.25 for m in END_TO_END)


CHECKS = (
    check_percentile_floor,
    check_normalisation,
    check_span_fold,
    check_explain_fold,
    check_result_schema,
    check_verdicts,
    check_public_surface,
    check_benchmark_json,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as error:
            failed += 1
            print(f"FAIL {check.__name__}: {error}")
        else:
            print(f"ok   {check.__name__}")
    print("selftest passed" if not failed else f"selftest FAILED ({failed})")
    return 1 if failed else 0
