"""Extended comparison: every registered scheme on one mix.

Beyond the paper's figure sets: the comparison set is the scheme
matrix's (:func:`repro.experiments.matrix.matrix_schemes` -- every
registry entry buildable from ``hcnt`` alone), so it includes Graphene,
stand-alone PARA, the post-paper MINT and DAPPER trackers, and every
future scheme that registers an ``hcnt``-buildable factory -- no table
here to keep in sync.  The Section VIII filtered-RFM variant of SHADOW
(``shadow-filtered``) is the one row added by hand: its hazard
threshold is chosen here.  Used to sanity-check that the whole
mitigation zoo behaves sensibly side by side, and to quantify how many
RFMs the hazard filter saves on benign traffic.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import secure_raaimt
from repro.experiments.configs import DEFAULT_HCNT, fidelity_config
from repro.experiments.matrix import matrix_schemes
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, scheme_spec, workload_spec
from repro.spec.registry import SCHEMES

#: Registry name -> table label; names absent here print as registered.
_DISPLAY = {
    "shadow": "SHADOW",
    "parfm": "PARFM",
    "para": "PARA",
    "mithril-perf": "Mithril-perf",
    "mithril-area": "Mithril-area",
    "graphene": "Graphene",
    "blockhammer": "BlockHammer",
    "rrs": "RRS",
    "drr": "DRR",
    "mint": "MINT",
    "dapper": "DAPPER",
}

#: Each row's output column -> the metric that fills it.
_COLUMNS = {
    "relative_performance": "ws-relative",
    "rfms": "rfms",
    "rfms_filtered": "rfms-filtered",
}


def spec(fidelity: str = "smoke",
         hcnt: int = DEFAULT_HCNT) -> ExperimentSpec:
    """The sweep as data: three columns per scheme row."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec()
    workload = workload_spec("mix-blend", threads=fc.threads)
    rows = {
        _DISPLAY.get(name, name): scheme_spec(
            name, **SCHEMES.buildable_params(name, {"hcnt": hcnt}))
        for name in matrix_schemes()
    }
    rows["SHADOW+filter"] = scheme_spec(
        "shadow-filtered", hcnt=hcnt,
        hazard_threshold=max(8, secure_raaimt(hcnt) // 4))
    points = [
        PointSpec(metric, ("schemes", label, column),
                  workload=workload, scheme=scheme, sim=sim)
        for label, scheme in rows.items()
        for column, metric in _COLUMNS.items()
    ]
    return ExperimentSpec("extended", fidelity, points,
                          meta={"hcnt": hcnt})


def render(results: Dict, fidelity: str) -> str:
    """The comparison as a text table."""
    table = [[name, vals["relative_performance"], vals["rfms"],
              vals["rfms_filtered"]]
             for name, vals in results["schemes"].items()]
    return format_table(
        ["scheme", "rel. perf", "RFMs", "RFMs filtered"], table,
        title=f"Extended comparison on mix-blend "
              f"(Hcnt={results['hcnt']}, {fidelity})")
