"""Golden outputs proving the spec-driven driver matches the old drivers.

``python tests/golden/generate_specs.py`` (re)writes
``spec_driver_golden.json`` next to it: the fig8 and fig12 smoke-shape
result dicts at a micro run scale (the same grid as the real smoke
fidelity, with thread counts and request budgets trimmed so the whole
thing runs in seconds).

The committed file was generated against the pre-spec (PR 3) per-figure
drivers, so ``tests/test_spec_driver.py`` asserting the current
spec-interpreting driver reproduces it *exactly* proves the refactor is
value-preserving, not just plausible.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import fig8, fig12
from repro.experiments.configs import FidelityConfig
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine

GOLDEN_PATH = Path(__file__).resolve().parent / "spec_driver_golden.json"

#: The smoke grid shape at micro run scale (mirrors tests/test_engine.py).
MICRO = FidelityConfig(
    name="smoke", threads=2, mt_threads=2,
    requests_per_thread=60, single_thread_requests=40,
    apps_per_suite=1, mix_random_count=1,
    tracker_threads=2, tracker_requests=80,
)


def run_micro():
    """The fig8 + fig12 smoke results at micro scale (no disk cache)."""
    results = {}
    for module in (fig8, fig12):
        original = module.fidelity_config
        module.fidelity_config = lambda name: MICRO
        try:
            results[module.__name__.rsplit(".", 1)[-1]] = run_spec(
                module.spec("smoke"), engine=Engine(use_cache=False))
        finally:
            module.fidelity_config = original
    return results


def main() -> None:
    payload = run_micro()
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
