"""Benchmark: regenerate Figure 10 (blast-radius sensitivity)."""

from repro.experiments import fig10
from repro.experiments.driver import run_spec


def test_fig10(once):
    results = once(run_spec, fig10.spec("smoke"))
    series = results["series"]
    radii = results["radii"]
    for key, vals in series.items():
        print(key.ljust(18),
              "  ".join(f"r{r}={vals[str(r)]:.3f}" for r in radii))

    lo, hi = str(radii[0]), str(radii[-1])
    for mix in {key.split("/")[0] for key in series}:
        shadow = series[f"{mix}/SHADOW"]
        parfm = series[f"{mix}/PARFM"]
        mithril = series[f"{mix}/Mithril"]

        # SHADOW's mitigating action is radius-independent: its curve is
        # flat (the paper's central Figure 10 claim).
        values = [shadow[str(r)] for r in radii]
        assert max(values) - min(values) < 0.04, mix

        # TRR-based schemes degrade as the radius widens...
        assert parfm[hi] <= parfm[lo] + 0.01, mix
        # ...and SHADOW wins at the widest radius (paper: radius > 2).
        assert shadow[hi] >= parfm[hi] - 0.005, mix
        assert shadow[hi] >= mithril[hi] - 0.005, mix
