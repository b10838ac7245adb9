"""Benchmark: regenerate Figure 9 (tRCD sensitivity of SHADOW)."""

from repro.experiments import fig9
from repro.experiments.driver import run_spec
from repro.experiments.configs import HCNT_SWEEP


def test_fig9(once):
    results = once(run_spec, fig9.spec("smoke"))
    series = results["series"]
    for key, vals in series.items():
        print(key.ljust(20),
              "  ".join(f"{h}={vals[str(h)]:.3f}" for h in HCNT_SWEEP))

    # Paper: overhead always below ~4-5% across the sweep.
    for key, vals in series.items():
        for hcnt, rel in vals.items():
            assert rel > 0.93, (key, hcnt)

    # Paper: at high Hcnt (rare RFMs) the tRCD value is what matters, so
    # a larger tRCD' never helps.
    for mix in ("mix-high", "mix-blend"):
        r23 = series[f"{mix}/tRCD23"]["16384"]
        r27 = series[f"{mix}/tRCD27"]["16384"]
        assert r27 <= r23 + 0.01, mix
