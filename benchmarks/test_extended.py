"""Benchmark: the extended all-schemes comparison (+ RFM filtering)."""

from repro.experiments import extended
from repro.experiments.driver import run_spec


def test_extended(once):
    results = once(run_spec, extended.spec("smoke"))
    schemes = results["schemes"]
    for name, vals in schemes.items():
        print(name.ljust(14),
              f"rel={vals['relative_performance']:.3f} "
              f"rfms={vals['rfms']} filtered={vals['rfms_filtered']}")

    # Everyone stays within sane bounds on mix-blend at 4K.
    for name, vals in schemes.items():
        assert 0.5 < vals["relative_performance"] <= 1.02, name

    # The hazard filter removes some RFM work on benign traffic without
    # costing performance (paper Section VIII's pitch).
    plain = schemes["SHADOW"]["relative_performance"]
    filtered = schemes["SHADOW+filter"]
    assert filtered["rfms_filtered"] > 0
    assert filtered["relative_performance"] >= plain - 0.02

    # RFM-based schemes actually issued RFMs.
    for name in ("SHADOW", "PARFM", "Mithril-area"):
        assert schemes[name]["rfms"] > 0, name
