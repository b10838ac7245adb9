"""Figure 12: relative system power and RFM-to-REF ratio.

Runs SHADOW and the baseline on mix-high / mix-blend across the H_cnt
sweep, feeds the measured command counts into the IDD power model, and
reports (a) system power relative to baseline and (b) the number of
RFMs normalized to the number of refreshes.

One declarative :class:`~repro.spec.ExperimentSpec`: each (mix, H_cnt)
cell contributes a ``relative-power`` and an ``rfm-per-ref`` point; the
underlying simulations (one baseline plus one SHADOW run per mix and
threshold) are deduplicated and cached by the engine, the power model
is evaluated inline on their command counts.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.configs import HCNT_SWEEP, fidelity_config
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, scheme_spec, workload_spec


def spec(fidelity: str = "smoke") -> ExperimentSpec:
    """The figure as data: two points (power, RFM ratio) per cell."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec()
    points = []
    for mix in ("mix-high", "mix-blend"):
        workload = workload_spec(mix, threads=fc.threads)
        for hcnt in HCNT_SWEEP:
            scheme = scheme_spec("shadow", hcnt=hcnt)
            points.append(PointSpec(
                "relative-power",
                ("series", f"{mix}/relative-power", str(hcnt)),
                workload=workload, scheme=scheme, sim=sim,
                params={"cpu_tdp_w": 165.0, "devices": 32,
                        "shadow": True}))
            points.append(PointSpec(
                "rfm-per-ref",
                ("series", f"{mix}/rfm-per-ref", str(hcnt)),
                workload=workload, scheme=scheme, sim=sim))
    return ExperimentSpec("fig12", fidelity, points)


def render(results: Dict, fidelity: str) -> str:
    """The figure's series as a text table."""
    hcnts = [str(h) for h in HCNT_SWEEP]
    rows = [[key] + [f"{vals[h]:.5f}" for h in hcnts]
            for key, vals in results["series"].items()]
    return format_table(
        ["series"] + [f"Hcnt={h}" for h in hcnts], rows,
        title=f"Figure 12: SHADOW relative system power and RFM/REF "
              f"ratio ({fidelity})")
