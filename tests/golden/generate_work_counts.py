"""Deterministic work budgets of the quick bench profiles.

``python tests/golden/generate_work_counts.py`` (re)writes
``work_counts.json`` next to it: for each profile in
:data:`repro.bench.BENCH_PROFILES`, run at its quick size with obs
metrics on, the simulated cycles, the commands placed on the command
buses, the scheduler's candidate evaluations / cache hits / recomputes,
and the RFMs issued.  ``tests/test_work_counts.py`` asserts equality.

Wall time depends on the host; these counts do not.  A change that makes
the scheduler do more work per decision shows up here on every host,
and a change that claims less work shows the diff.  A PR that moves a
count regenerates the file and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import BENCH_PROFILES
from repro.obs import Observability

WORK_COUNTS_PATH = Path(__file__).resolve().parent / "work_counts.json"


def profile_record(name: str) -> dict:
    """Run one quick profile with metrics on and return its counts."""
    obs = Observability(metrics=True)
    system = BENCH_PROFILES[name].build(quick=True, obs=obs)
    result = system.run()
    mc = system.mc
    return {
        "cycles": result.cycles,
        "commands": sum(c.commands_issued for c in mc._chans),
        "cand_evals": mc.cand_evals,
        "cand_hits": mc.cand_hits,
        "cand_recomputes": mc.cand_recomputes,
        "rfms": result.rfms,
    }


def generate() -> dict:
    return {name: profile_record(name) for name in BENCH_PROFILES}


def main() -> None:
    counts = generate()
    WORK_COUNTS_PATH.write_text(
        json.dumps(counts, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    for name, record in counts.items():
        print(f"{name:>18}: cycles={record['cycles']} "
              f"commands={record['commands']} "
              f"evals={record['cand_evals']} "
              f"recomputes={record['cand_recomputes']}")


if __name__ == "__main__":
    main()
