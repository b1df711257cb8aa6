"""``python -m repro.fuzz`` — run the differential fuzzer from the shell.

Exit status 0 means every sampled plan agreed with its initial plan under
every sampled configuration; 1 means at least one shrunk reproducer was
found (and written to ``--out``, if given).
"""

from __future__ import annotations

import argparse
import sys

from repro.fuzz.harness import FuzzHarness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential plan-equivalence fuzzer for the TANGO middleware.",
    )
    parser.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    parser.add_argument(
        "--budget",
        type=int,
        default=200,
        help="plan executions to spend (default 200)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory for shrunk pytest reproducers (default: don't write)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop after this many distinct failures (default 5)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without delta-debugging them",
    )
    parser.add_argument(
        "--no-adaptive",
        action="store_true",
        help=(
            "drop adaptive execution (cardinality learning) from the "
            "configuration matrix"
        ),
    )
    parser.add_argument(
        "--no-updates",
        action="store_true",
        help=(
            "drop the update axis (mutate-then-refresh materialized-view "
            "equivalence checks)"
        ),
    )
    arguments = parser.parse_args(argv)
    harness = FuzzHarness(
        seed=arguments.seed,
        budget=arguments.budget,
        out_dir=arguments.out,
        max_failures=arguments.max_failures,
        shrink=not arguments.no_shrink,
        adaptive_axis=not arguments.no_adaptive,
        updates_axis=not arguments.no_updates,
    )
    report = harness.run()
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
