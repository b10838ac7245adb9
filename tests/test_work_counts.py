"""Pinned work budgets: the quick bench profiles do the recorded work.

``tests/golden/work_counts.json`` holds, per quick bench profile, the
simulated cycles, commands, candidate evaluations / hits / recomputes
and RFMs.  The counts are deterministic, so an algorithmic regression
in the scheduler (more evaluations for the same command stream) fails
here on every host, however fast or slow it is.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import BENCH_PROFILES

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_work_counts", _GOLDEN_DIR / "generate_work_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
PINNED = json.loads(GEN.WORK_COUNTS_PATH.read_text(encoding="utf-8"))


def test_pin_covers_every_profile():
    assert set(PINNED) == set(BENCH_PROFILES)


@pytest.mark.parametrize("name", sorted(BENCH_PROFILES))
def test_work_counts_match_pin(name):
    record = GEN.profile_record(name)
    assert record == PINNED[name], (
        f"{name}: work counts moved; if intended, rerun "
        f"`python tests/golden/generate_work_counts.py` and say why")
    # The hit/recompute split accounts for every evaluation.
    assert record["cand_evals"] == \
        record["cand_hits"] + record["cand_recomputes"]
