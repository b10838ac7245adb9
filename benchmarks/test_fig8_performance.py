"""Benchmark: regenerate Figure 8 (relative performance of the schemes).

Smoke fidelity; the shape assertions mirror the paper's claims:
single-threaded overhead is negligible for every scheme; SHADOW stays
within a few percent on the memory-intensive mixes; DRR's blunt extra
refreshes make it the costly yardstick on refresh-sensitive workloads.
"""

from repro.experiments import fig8
from repro.experiments.driver import run_spec


def test_fig8(once):
    results = once(run_spec, fig8.spec("smoke"))
    series = results["relative_performance"]
    workloads = list(next(iter(series.values())))
    for name, vals in series.items():
        print(name.ljust(14),
              "  ".join(f"{w}={vals[w]:.3f}" for w in workloads))

    # Single-threaded applications barely notice any scheme (paper:
    # "rarely increase the execution time", <2% even on spec-high).
    for name, vals in series.items():
        for group in ("spec-high", "spec-med", "spec-low"):
            assert vals[group] > 0.93, (name, group)

    # SHADOW on the mixes: low single-digit overhead (paper: <3%).
    assert series["SHADOW"]["mix-high"] > 0.93
    assert series["SHADOW"]["mix-blend"] > 0.95

    # Mithril-perf (10 KB CAM per bank) never loses to SHADOW by much:
    # its large table buys rare RFMs (paper Section VII-C).
    assert series["Mithril-perf"]["mix-high"] >= \
        series["SHADOW"]["mix-high"] - 0.03

    # Nothing beats the unprotected baseline.
    for name, vals in series.items():
        for workload, rel in vals.items():
            assert rel <= 1.02, (name, workload)
