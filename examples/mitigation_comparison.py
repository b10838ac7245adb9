#!/usr/bin/env python3
"""Compare SHADOW against the baseline mitigations on one mix.

Runs mix-blend under each scheme, reporting the relative weighted
speedup (performance), the mitigation activity (RFMs / TRRs / swaps /
throttles), and the silicon cost from the area model -- the trade-off
triangle the paper's Sections III and VII argue about.

Run:  python examples/mitigation_comparison.py
"""

from repro.analysis.area import AreaModel
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine, shared_job
from repro.spec import (
    ExperimentSpec,
    PointSpec,
    SimSpec,
    scheme_spec,
    workload_spec,
)

HCNT = 4096


def activity(result) -> str:
    """The scheme's ``mitigation.*`` event counters from the run's
    metrics summary (shuffles, swaps, throttles, ...)."""
    counters = result.metrics["metrics"]
    parts = [f"{value} {name[len('mitigation.'):]}"
             for name, value in sorted(counters.items())
             if name.startswith("mitigation.")]
    return ", ".join(parts) or "-"


def main() -> None:
    workload = workload_spec("mix-blend", threads=8)
    sim = SimSpec(requests=2000, seed=9)
    area = AreaModel()
    comparison_mm2 = area.comparison(hcnt=HCNT)

    schemes = {
        "SHADOW": scheme_spec("shadow-raw", raaimt=64),
        "PARFM": scheme_spec("parfm", hcnt=HCNT),
        "Mithril-perf": scheme_spec("mithril-perf", hcnt=HCNT),
        "Mithril-area": scheme_spec("mithril-area", hcnt=HCNT),
        "DRR": scheme_spec("drr"),
        "BlockHammer": scheme_spec("blockhammer", hcnt=HCNT),
        "RRS": scheme_spec("rrs", hcnt=HCNT),
    }
    engine = Engine()
    rel = run_spec(ExperimentSpec("mitigation-comparison", points=tuple(
        PointSpec("ws-relative", (name,), workload=workload, scheme=spec,
                  sim=sim)
        for name, spec in schemes.items())), engine)
    # The shared scheme runs again for their activity counters: cache
    # hits, since run_spec just ran the same jobs.
    profiles, config = workload.build(), sim.to_system_config()
    jobs = {name: shared_job(profiles, spec, config)
            for name, spec in schemes.items()}
    shared = engine.run(jobs.values())

    print(f"mix-blend, 8 threads, Hcnt={HCNT}, DDR4-2666")
    print(f"{'scheme':14s} {'rel. perf':>9s}  {'chip area':>10s}  activity")
    for name in schemes:
        result = shared[jobs[name]]
        area_key = {"SHADOW": "SHADOW", "Mithril-perf": "Mithril-perf",
                    "Mithril-area": "Mithril-area",
                    "RRS": "RRS (MC-side)"}.get(name)
        mm2 = f"{comparison_mm2[area_key]:.2f}mm2" if area_key else "~0"
        print(f"{name:14s} {rel[name]:9.4f}  {mm2:>10s}  {activity(result)}")

    report = area.shadow_report()
    print(f"\nSHADOW silicon: {report.total_mm2:.2f} mm2 "
          f"({report.fraction_of_die:.2%} of a DDR5 die; paper: 0.47%), "
          f"capacity overhead {area.capacity_overhead():.2%} "
          f"(paper: 0.6%)")


if __name__ == "__main__":
    main()
