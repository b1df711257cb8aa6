"""The TANGO benchmark: six workloads, one result schema, a per-layer table.

Run from the repository root::

    python3 -m bench run --seed 1                 # every workload, both passes
    python3 -m bench run --workload taggr_scan --seed 1 --seconds 15 --trace 0
    python3 -m bench check | compare A.json B.json | selftest

``bench/README.md`` documents the layers, the workloads and why each was
chosen, every metric with its unit and regression bound, and how to read
``compare``.  A change that claims a performance gain may not edit this
package or ``BENCHMARK.json``.
"""
