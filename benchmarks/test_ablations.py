"""Benchmark: ablations of SHADOW's design choices (DESIGN.md Sec. 6)."""

from repro.experiments import ablations
from repro.experiments.driver import run_spec


def test_ablations(once):
    results = once(run_spec, ablations.spec("smoke"))

    timing = results["timing"]
    for name, vals in timing.items():
        print(name.ljust(18), vals)

    # Subarray pairing hides the remapping-row restore/precharge: without
    # it both the ACT path and the RFM work get much slower.
    assert timing["no pairing"]["act_extra_cycles"] > \
        3 * timing["full SHADOW"]["act_extra_cycles"]
    assert timing["no pairing"]["rfm_work_ns"] > \
        timing["full SHADOW"]["rfm_work_ns"]

    # The isolation transistor is what makes the remapping read cheap.
    assert timing["no isolation"]["act_extra_cycles"] > \
        timing["full SHADOW"]["act_extra_cycles"]

    # Dropping the incremental refresh saves (tRAS + tRP) per RFM.
    assert timing["no incr. refresh"]["rfm_work_ns"] < \
        timing["full SHADOW"]["rfm_work_ns"]

    protection = results["protection"]
    print(protection)
    # Protection ordering: full SHADOW <= no-incremental <= undefended.
    assert protection["with incremental refresh"] <= \
        protection["without incremental refresh"] + 0.05
    assert protection["no shuffle (RFM only)"] > 0.8
    assert protection["with incremental refresh"] < \
        protection["no shuffle (RFM only)"]

    performance = results["performance"]
    print(performance)
    # The LFSR RNG option performs the same as PRINCE (Section VIII).
    assert abs(performance["LFSR RNG"]
               - performance["full SHADOW"]) < 0.03
    # The un-paired variant pays for its longer tRCD'.
    assert performance["no pairing"] <= performance["full SHADOW"] + 0.01
