"""Benchmark: regenerate Figure 11 (SHADOW vs BlockHammer vs RRS)."""

from repro.experiments import fig11
from repro.experiments.driver import run_spec


def test_fig11(once):
    results = once(run_spec, fig11.spec("smoke"))
    series = results["series"]
    sweep = [str(h) for h in results["hcnt_sweep"]]
    hi, lo = sweep[0], sweep[-1]   # 16K ... 2K
    for key, vals in series.items():
        print(key.ljust(24),
              "  ".join(f"{h}={vals[h]:.3f}" for h in sweep))

    for mix in {key.split("/")[0] for key in series}:
        shadow = series[f"{mix}/SHADOW"]
        blockhammer = series[f"{mix}/BlockHammer"]
        rrs = series[f"{mix}/RRS"]

        # SHADOW is robust across the whole sweep (paper: best scheme
        # below 4K, always within a few percent).
        for h in sweep:
            assert shadow[h] > 0.9, (mix, h)

        # BlockHammer collapses as the threshold drops (throttle delays
        # grow as tREFW/hcnt and misidentification rises).
        assert blockhammer[lo] < blockhammer[hi], mix
        # SHADOW beats BlockHammer at the lowest threshold.
        assert shadow[lo] > blockhammer[lo], mix

        # RRS never beats SHADOW at the lowest threshold (channel-
        # blocking swaps fire ever more often).
        assert shadow[lo] >= rrs[lo] - 0.03, mix
