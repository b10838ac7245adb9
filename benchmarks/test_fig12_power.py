"""Benchmark: regenerate Figure 12 (relative power, RFM/REF ratio)."""

from repro.experiments import fig12
from repro.experiments.driver import run_spec
from repro.experiments.configs import HCNT_SWEEP


def test_fig12(once):
    results = once(run_spec, fig12.spec("smoke"))
    series = results["series"]
    for key, vals in series.items():
        print(key.ljust(26),
              "  ".join(f"{h}={vals[str(h)]:.4f}" for h in HCNT_SWEEP))

    for mix in ("mix-high", "mix-blend"):
        power = series[f"{mix}/relative-power"]
        ratio = series[f"{mix}/rfm-per-ref"]

        # Paper: system-level power cost below 0.63% even at 2K, and
        # never below baseline (SHADOW only ever adds energy).
        for h in HCNT_SWEEP:
            assert 1.0 <= power[str(h)] < 1.0063, (mix, h)

        # The RFM count grows as Hcnt shrinks (RAAIMT drops)...
        assert ratio["2048"] >= ratio["16384"], mix
        # ...while the power stays nearly flat (dominated by the
        # per-ACT remapping-row accesses, not the shuffles).
        spread = max(power[str(h)] for h in HCNT_SWEEP) \
            - min(power[str(h)] for h in HCNT_SWEEP)
        assert spread < 0.005, mix
