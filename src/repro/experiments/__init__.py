"""Experiment drivers: one module per paper table/figure.

Every module exposes ``spec(fidelity)`` returning the figure as a
declarative :class:`~repro.spec.ExperimentSpec` and
``render(results, fidelity)`` formatting the plain dict the generic
driver (:func:`run_spec`) computes from it as the table the paper
reports.  ``shadow-repro experiment <name>`` (``repro.cli``) runs one
by name; ``run_spec(module.spec(fidelity))`` does the same in code.

``fidelity`` selects the run scale:

* ``"smoke"`` -- minutes-scale runs used by the benchmark suite; same
  mechanisms, trimmed workload sets and request budgets.
* ``"full"`` -- the paper-scale configuration (all applications, 14-16
  threads, larger budgets); used to produce EXPERIMENTS.md.
"""

from repro.experiments.configs import FidelityConfig, fidelity_config
from repro.experiments.driver import METRICS, run_spec
from repro.experiments.engine import (
    Engine,
    EngineStats,
    Job,
    JobResult,
    SchemeSpec,
    scheme_spec,
)

__all__ = [
    "Engine",
    "EngineStats",
    "FidelityConfig",
    "Job",
    "JobResult",
    "METRICS",
    "SchemeSpec",
    "fidelity_config",
    "run_spec",
    "scheme_spec",
]
