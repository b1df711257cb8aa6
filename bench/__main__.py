"""``python3 -m bench <command>`` — run, trace, check, compare, selftest.

The driver's contract is ``run --workload W --seed N --seconds S --trace T``:
one workload in this process, human-readable lines first, one JSON object
on the last line.  Without ``--workload``, ``run`` measures every workload
(each in its own child process, one at a time), both passes, prints the
end-to-end table and then the per-layer table, and writes one result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 15
ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = (
    "taggr_scan",
    "tjoin_roundtrip",
    "regular_dbms",
    "adhoc_cold",
    "view_churn",
    "service_mix",
)


def run_one(args) -> int:
    """One workload, in this process (what the driver invokes)."""
    from bench import harness, report

    if args.trace:
        OUT.mkdir(exist_ok=True)
        outcome = harness.run_traced(
            args.workload,
            args.seed,
            args.seconds,
            smoke=args.smoke,
            trace_path=OUT / f"trace_{args.workload}.json",
        )
    else:
        outcome = harness.run_timed(args.workload, args.seed, args.seconds, smoke=args.smoke)
    run = outcome.to_dict()
    report.print_run(run)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(run, handle)
    print(json.dumps(outcome.to_contract()))
    return 0 if outcome.correct else 1


def child(arguments: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args) -> int:
    """Every workload, each in its own child process, one at a time."""
    from bench import report

    OUT.mkdir(exist_ok=True)
    modes = [1] if args.command == "trace" else [0, 1]
    runs: list[dict] = []
    status = 0
    for repeat in range(args.repeat):
        for workload in args.workloads:
            for trace in modes:
                out = OUT / f"run_{workload}_{trace}.json"
                out.unlink(missing_ok=True)
                arguments = [
                    "run", "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out),
                ]
                if args.smoke:
                    arguments.append("--smoke")
                done = child(arguments)
                if not out.exists():
                    print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                    print(f"{workload} (trace {trace}) produced no result", file=sys.stderr)
                    return 2
                with open(out) as handle:
                    run = json.load(handle)
                out.unlink()
                run["repeat"] = repeat
                runs.append(run)
                report.print_run(run)
                status |= done.returncode
    document = {
        "schema": report.SCHEMA,
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "repeat": args.repeat,
        },
        "runs": runs,
    }
    report.print_tables(document)
    path = Path(args.out) if args.out else OUT / f"result_seed{args.seed}.json"
    report.dump(path, document["meta"], runs)
    print(f"\nresult written to {path}")
    return status


def counts(args) -> int:
    """The exact counts and plan digest of one workload (``check``'s child)."""
    from bench import harness
    from bench.workloads import make

    workload = make(args.workload, args.seed, seconds=5.0)
    workload.setup()
    found = harness.counted_pass(workload, harness.Driver(workload))
    found["plan_digest"] = workload.plan_digest()
    workload.close()
    print(json.dumps(found))
    return 0


def check(args) -> int:
    """Run the count metrics twice on one seed; they must repeat exactly on
    the single-threaded workloads (each run is a fresh process, so string
    hashing differs between the two)."""
    from bench.metrics import EXACT_COUNTS

    failures = 0
    for workload in args.workloads:
        pair = []
        for _ in range(2):
            done = child(["counts", "--workload", workload, "--seed", str(args.seed)])
            if done.returncode != 0:
                print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                return 2
            pair.append(json.loads(done.stdout.strip().splitlines()[-1]))
        differing = [
            name
            for name in (*EXACT_COUNTS, "plan_digest")
            if pair[0][name] != pair[1][name]
        ]
        exempt = workload == "service_mix"
        word = "ok" if not differing else ("differs (not asserted)" if exempt else "DIFFERS")
        print(f"{workload:<18} {word}  ticks_per_op={pair[0]['ticks_per_op']:.1f}"
              f"  digest={pair[0]['plan_digest'][:12]}")
        for name in differing:
            print(f"   {name}: {pair[0][name]} vs {pair[1][name]}")
        failures += bool(differing) and not exempt
    print("check passed" if not failures else f"check FAILED on {failures} workload(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("--workload", choices=WORKLOAD_NAMES)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
        sub.add_argument("--trace", type=int, choices=(0, 1), default=int(name == "trace"))
        sub.add_argument("--smoke", action="store_true",
                         help="measure 3 s per workload; p90 is suppressed below its sample floor")
        sub.add_argument("--repeat", type=int, default=1)
        sub.add_argument("--out", help="where to write the result JSON")
    for name in ("check", "counts"):
        sub = commands.add_parser(name)
        sub.add_argument("--workload", choices=WORKLOAD_NAMES)
        sub.add_argument("--seed", type=int, default=1)
    sub = commands.add_parser("compare")
    sub.add_argument("base")
    sub.add_argument("change")
    commands.add_parser("selftest")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() and args.command != "compare":
        print(f"bench: {ROOT / 'src' / 'repro'} is missing: nothing to measure", file=sys.stderr)
        return 2
    if args.command in ("run", "trace", "check", "counts"):
        args.workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.command in ("run", "trace"):
        if args.workload and args.repeat == 1:
            return run_one(args)
        return run_all(args)
    if args.command == "counts":
        return counts(args)
    if args.command == "check":
        return check(args)
    if args.command == "compare":
        from bench import report

        return 1 if report.compare(report.load(args.base), report.load(args.change)) else 0
    from bench import selftest

    return selftest.main()


if __name__ == "__main__":
    sys.exit(main())
