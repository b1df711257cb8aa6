"""Result files: the one schema, the printed tables, and ``compare``.

A result file is ``{"schema": "tango-bench/1", "meta": {...}, "runs": [...]}``
where each run is one workload in one mode (``trace`` 0 = end-to-end, 1 =
per-layer) of one repeat, exactly as the child process reported it.
"""

from __future__ import annotations

import json
from statistics import median

from bench import stats
from bench.metrics import END_TO_END, FAILED_OPS_RATIO, PER_LAYER

SCHEMA = "tango-bench/1"
#: Three runs a side fall apart by chance one time in ten; five, one in 126.
MIN_RUNS_TO_SEPARATE = 5


def dump(path, meta: dict, runs: list[dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"schema": SCHEMA, "meta": meta, "runs": runs}, handle, indent=1)
        handle.write("\n")


def load(path) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} result file")
    return document


def values_of(document: dict, trace: int) -> dict:
    """``{workload: {metric: [value per repeat]}}`` for one mode."""
    table: dict = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, reading in run["metrics"].items():
            if reading["value"] is not None:
                metrics.setdefault(name, []).append(reading["value"])
    return table


def fmt(value) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 10:
        return f"{value:.2f}"
    return f"{value:.4g}"


def print_run(run: dict) -> None:
    """One child's numbers, every metric by name with its unit."""
    mode = "per-layer (traced pass)" if run["trace"] else "end-to-end (tracing off)"
    print(f"== {run['workload']}  seed {run['seed']}  {mode}")
    detail = run.get("detail", {})
    if detail.get("size"):
        print(f"   input: {detail['size']}")
    if not run["trace"]:
        print(
            f"   samples: {detail.get('samples')}  rounds: {detail.get('rounds')}"
            f"  clients: {detail.get('clients')}"
            f"  bench.ref_kernel_ms: {fmt(detail.get('ref_kernel_ms'))}"
            f"  bench.verify_s: {fmt(detail.get('verify_s'))}"
        )
    for name, reading in run["metrics"].items():
        print(f"   {name:<36} {fmt(reading['value']):>14} {reading['unit']}")
    ratio = run["failed"] / max(1, run["attempted"])
    print(
        f"   {FAILED_OPS_RATIO.name:<36} {fmt(ratio):>14} {FAILED_OPS_RATIO.unit}"
        f"  ({run['failed']}/{run['attempted']})"
    )
    for problem in run.get("problems", []):
        print(f"   !! {problem}")


def print_tables(document: dict) -> None:
    """The end-to-end table, then the per-layer table, workloads as columns."""
    for trace, declared, title in (
        (0, END_TO_END, "END-TO-END (medians over repeats)"),
        (1, PER_LAYER, "PER-LAYER (medians over repeats)"),
    ):
        table = values_of(document, trace)
        if not table:
            continue
        workloads = list(table)
        print(f"\n{title}")
        print(f"{'metric':<34}{'unit':>7} " + "".join(f"{w:>16}" for w in workloads))
        for metric in declared:
            cells = []
            for workload in workloads:
                values = table[workload].get(metric.name)
                cells.append(fmt(median(values)) if values else "-")
            print(f"{metric.name:<34}{metric.unit:>7} " + "".join(f"{c:>16}" for c in cells))
        if trace == 0:
            failed = {w: [0, 0] for w in workloads}
            for run in document["runs"]:
                if run["trace"] == 0:
                    failed[run["workload"]][0] += run["failed"]
                    failed[run["workload"]][1] += run["attempted"]
            cells = [fmt(f / max(1, a)) for f, a in failed.values()]
            print(
                f"{FAILED_OPS_RATIO.name:<34}{FAILED_OPS_RATIO.unit:>7} "
                + "".join(f"{c:>16}" for c in cells)
            )


# ------------------------------------------------------------------------------------
# compare
# ------------------------------------------------------------------------------------


def verdict(metric, base: list[float], change: list[float]) -> tuple[str, float]:
    """``improved / unchanged / regressed / unresolved`` and the ratio of the
    change's median to the base's.

    The change regressed when its median is worse than the base's by more
    than the metric's bound.  When the run-to-run spread (interquartile
    distance over median, the wider of the two sets) exceeds the bound and
    the two sets of runs overlap, the pair cannot be resolved.  It improved
    when it is better by more than the spread and either beyond the bound
    or, given at least ``MIN_RUNS_TO_SEPARATE`` runs a side, with every run
    better than every run of the base."""
    base_median = median(base)
    ratio = median(change) / base_median if base_median else float("inf")
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    bound = metric.bound or 0.0
    spread = max(stats.spread(base), stats.spread(change))
    separated = min(change) > max(base) or max(change) < min(base)
    if spread > bound and not separated:
        return "unresolved", ratio
    if worse > bound:
        return "regressed", ratio
    enough = min(len(base), len(change)) >= MIN_RUNS_TO_SEPARATE
    if -worse > spread and (-worse > bound or (separated and enough)):
        return "improved", ratio
    return "unchanged", ratio


def compare(base_doc: dict, change_doc: dict) -> int:
    """Print one row per (workload, end-to-end metric) and the per-layer
    deltas underneath; → the number of regressed or unresolved rows."""
    bad = 0
    base_e2e, change_e2e = values_of(base_doc, 0), values_of(change_doc, 0)
    base_layer, change_layer = values_of(base_doc, 1), values_of(change_doc, 1)
    header = (
        f"{'metric':<20}{'unit':>6}{'A q1':>11}{'A med':>11}{'A q3':>11}"
        f"{'B q1':>11}{'B med':>11}{'B q3':>11}{'B/A':>8}{'bound':>7}  verdict"
    )
    for workload in base_e2e:
        if workload not in change_e2e:
            continue
        print(f"\n== {workload}  (A: {len(next(iter(base_e2e[workload].values())))} runs,"
              f" B: {len(next(iter(change_e2e[workload].values())))} runs; ratio base = A median)")
        print(header)
        for metric in END_TO_END:
            a = base_e2e[workload].get(metric.name)
            b = change_e2e[workload].get(metric.name)
            if not a or not b:
                continue
            word, ratio = verdict(metric, a, b)
            bad += word in ("regressed", "unresolved")
            aq, bq = stats.quartiles(a), stats.quartiles(b)
            print(
                f"{metric.name:<20}{metric.unit:>6}"
                + "".join(f"{fmt(v):>11}" for v in (*aq, *bq))
                + f"{ratio:>8.3f}{metric.bound:>7.2f}  {word}"
            )
        layers_a, layers_b = base_layer.get(workload, {}), change_layer.get(workload, {})
        moved = []
        for metric in PER_LAYER:
            a, b = layers_a.get(metric.name), layers_b.get(metric.name)
            if not a or not b:
                continue
            median_a, median_b = median(a), median(b)
            if median_a == median_b:
                continue
            moved.append((metric, median_a, median_b))
        if moved:
            print("   per-layer medians that differ (no bounds; locate a saving here):")
            for metric, median_a, median_b in moved:
                delta = f"{median_b / median_a:>8.3f}x" if median_a else "       -"
                print(
                    f"   {metric.name:<34}{metric.unit:>7}{fmt(median_a):>13}"
                    f" ->{fmt(median_b):>13}{delta}"
                )
    print(f"\n{bad} row(s) regressed or unresolved")
    return bad
