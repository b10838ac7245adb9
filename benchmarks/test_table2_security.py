"""Benchmark: regenerate Table II (closed-form security analysis)."""

import math

from repro.experiments import table2
from repro.experiments.driver import run_spec


def test_table2(once):
    results = once(run_spec, table2.spec())
    cells = results["cells"]

    rows = []
    for raaimt in table2.RAAIMT_VALUES:
        vals = [cells[f"{raaimt},{h}"]["probability"]
                for h in table2.HCNT_VALUES]
        rows.append((raaimt, vals))
        print(f"RAAIMT={raaimt}: " + "  ".join(f"{v:.1e}" for v in vals))

    # Shape 1: the secure set matches the paper's bold entries exactly
    # (anything below the 1%/rank-year budget counts as secure).
    for raaimt in table2.RAAIMT_VALUES:
        for hcnt in table2.HCNT_VALUES:
            cell = cells[f"{raaimt},{hcnt}"]
            paper_value = {"1": 1.0, "0": 0.0}.get(
                cell["paper"], float(cell["paper"].replace("E", "e")))
            assert cell["secure"] == (paper_value < 0.01), (raaimt, hcnt)

    # Shape 2: halving RAAIMT collapses the probability super-linearly.
    for hcnt in table2.HCNT_VALUES:
        p128 = cells[f"128,{hcnt}"]["probability"]
        p64 = cells[f"64,{hcnt}"]["probability"]
        p32 = cells[f"32,{hcnt}"]["probability"]
        assert p32 <= p64 <= p128

    # Shape 3: diagonal structure (equal hcnt/raaimt ~ equal regime).
    diag = [cells["128,8192"], cells["64,4096"], cells["32,2048"]]
    logs = [math.log10(max(c["probability"], 1e-300)) for c in diag]
    assert max(logs) - min(logs) < 2.5


def test_every_paper_cell_within_two_decades(once):
    results = once(run_spec, table2.spec())
    for key, cell in results["cells"].items():
        paper = {"1": 1.0, "0": 0.0}.get(
            cell["paper"], float(cell["paper"].replace("E", "e")))
        ours = cell["probability"]
        if paper == 0.0:
            assert ours < 1e-80, key
        elif paper >= 0.4:
            assert ours > 1e-2, key
        else:
            assert abs(math.log10(ours) - math.log10(paper)) < 2.0, key
