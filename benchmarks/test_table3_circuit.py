"""Benchmark: regenerate Table III (analytical circuit timings)."""

import pytest

from repro.experiments import table3
from repro.experiments.driver import run_spec


def test_table3(once):
    results = once(run_spec, table3.spec())
    rows = results["rows"]
    for key, row in rows.items():
        print(f"{key:10s} {row['timing_ns']:.1f} ns "
              f"(ratio {row['ratio'] if row['ratio'] is not None else '-'})")

    # Every row of the table within tight absolute tolerance.
    assert rows["tRCD'"]["timing_ns"] == pytest.approx(17.7, abs=0.5)
    assert rows["row-copy"]["timing_ns"] == pytest.approx(73.9, abs=1.0)
    assert rows["tRCD_RM"]["timing_ns"] == pytest.approx(2.3, abs=0.5)
    assert rows["tWR_RM"]["timing_ns"] == pytest.approx(9.0, abs=0.5)
    assert rows["tRD_RM"]["timing_ns"] == pytest.approx(4.0, abs=0.5)

    # Ratios against the baseline column.
    assert rows["tRCD'"]["ratio"] == pytest.approx(0.29, abs=0.03)
    assert rows["tRCD_RM"]["ratio"] == pytest.approx(-0.83, abs=0.05)
    assert rows["tWR_RM"]["ratio"] == pytest.approx(-0.24, abs=0.03)
    assert rows["tRD_RM"]["ratio"] == pytest.approx(-0.71, abs=0.05)

    # Section VII-B row-shuffle totals: 178 ns DDR4, 186 ns DDR5.
    totals = results["shuffle_total_ns"]
    assert totals["DDR4-2666"] == pytest.approx(178, abs=4)
    assert totals["DDR5-4800"] == pytest.approx(186, abs=5)
