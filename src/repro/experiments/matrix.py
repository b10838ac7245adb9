"""Scheme matrix: one short engine point per registered scheme.

A coverage sweep, not a paper figure: every scheme the central registry
can build from ``hcnt`` alone (the CLI criterion -- so MINT, DAPPER and
any future registration are included automatically) runs one short
fig12-style ``mt-relative`` cell on mix-blend.  CI drives it under
``--keep-going`` as the ``tracker-matrix`` job: a scheme whose
construction or simulation breaks turns into an engine failure and a
nonzero exit instead of silently falling out of the comparison set.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.configs import DEFAULT_HCNT, fidelity_config
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, scheme_spec, workload_spec
from repro.spec.registry import SCHEMES

#: Registry entries with no matrix row: ``none`` is the baseline every
#: ratio divides by, ``shadow-ablate`` duplicates ``shadow`` at its
#: default toggles.
_SKIP = frozenset({"none", "shadow-ablate"})


def matrix_schemes() -> List[str]:
    """Every scheme name the matrix covers, in registry order."""
    return [name for name in SCHEMES.names()
            if name not in _SKIP and SCHEMES.accepts(name, "hcnt")]


def spec(fidelity: str = "smoke",
         hcnt: int = DEFAULT_HCNT) -> ExperimentSpec:
    """The sweep as data: one relative-performance cell per scheme."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec()
    workload = workload_spec("mix-blend", threads=fc.threads)
    points = [
        PointSpec("mt-relative", ("schemes", name),
                  workload=workload,
                  scheme=scheme_spec(
                      name, **SCHEMES.buildable_params(
                          name, {"hcnt": hcnt})),
                  sim=sim)
        for name in matrix_schemes()
    ]
    return ExperimentSpec("scheme-matrix", fidelity, points)


def render(results: Dict, fidelity: str) -> str:
    """The per-scheme matrix as a text table."""
    rows = [[name, f"{value:.4f}"]
            for name, value in sorted(results["schemes"].items())]
    return format_table(
        ["scheme", "rel. perf"], rows,
        title=f"Scheme matrix on mix-blend "
              f"(Hcnt={DEFAULT_HCNT}, {fidelity})")
