"""Simulator hot-path benchmarking (``shadow-repro bench``).

The bench harness pins a small set of seeded system configurations that
each stress a different scheduler regime (row-hit streaming, row-miss
conflicts, RFM-heavy SHADOW traffic, refresh-dominated idling), measures
cycles-simulated-per-second for each, and writes a machine-readable
report so successive PRs accumulate a performance trajectory
(``BENCH_PR9.json`` is the committed baseline).  CI runs the quick
variant and fails on large regressions, and gates the wall-time
overhead of observability and fault injection (:data:`OVERHEAD`).
"""

from repro.bench.harness import (
    BENCH_PROFILES,
    OVERHEAD,
    BenchProfile,
    check_overhead,
    check_regression,
    load_report,
    run_bench,
    run_overhead,
    write_report,
)

__all__ = [
    "BENCH_PROFILES",
    "OVERHEAD",
    "BenchProfile",
    "check_overhead",
    "check_regression",
    "load_report",
    "run_bench",
    "run_overhead",
    "write_report",
]
