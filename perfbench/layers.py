"""Per-layer tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary:
the benchmark wraps the public methods the simulator calls on its
mitigation, fault observer, memory controller and banks, *per instance*,
after the object is constructed and before ``System`` binds it.  The
classes are never patched: ``MemoryController.__init__`` selects its
hot-path gates by comparing ``type(mitigation).<hook>`` against the base
class, so a class-level wrapper would switch gates and change the
simulated outcome.  Trace generators are the one exception -- ``System``
builds them internally, so their ``materialize`` is patched on the class
for the duration of one construction and restored afterwards.

Span names are ``<layer>.<entry point>``; each span keeps its total
time, its *self* time (total minus time in nested traced spans) and its
call count.  The program's source is not edited.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import uuid
from typing import Callable, Dict, Optional

from repro.experiments.engine import Job, JobResult
from repro.obs import Observability
from repro.sim import System
from repro.workloads.hammer import HammerTraceGenerator
from repro.workloads.trace import TraceGenerator

MITIGATION_HOOKS = ("before_activate", "on_activate", "on_rfm", "on_ref",
                    "translation_generation")
OBSERVER_HOOKS = ("on_activate", "on_row_refresh", "on_refresh_range",
                  "on_row_copy")
BANK_COMMANDS = ("issue_act", "issue_pre", "issue_rd", "issue_wr",
                 "issue_ref", "issue_rfm")

#: Per-simulation outcome counters summed into the layer metrics.
COUNTERS = ("acts", "reads", "writes", "refreshes", "rfms", "commands",
            "cand_evals", "cand_hits", "cand_recomputes", "bits_injected")


class Spans:
    """In-memory span totals, self times and call counts by name."""

    def __init__(self) -> None:
        # name -> [total seconds, self seconds, calls, result items]
        self.cells: Dict[str, list] = {}
        # Child time accumulated by each open span; the root never closes.
        self._child = [0.0]

    def _cell(self, name: str) -> list:
        return self.cells.setdefault(name, [0.0, 0.0, 0, 0])

    def total(self, name: str) -> float:
        return self.cells.get(name, (0.0,))[0]

    def self_time(self, name: str) -> float:
        return self.cells.get(name, (0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.cells.get(name, (0.0, 0.0, 0))[2]

    def items(self, name: str) -> int:
        return self.cells.get(name, (0.0, 0.0, 0, 0))[3]

    def wrap(self, fn: Callable, name: str, sized: bool = False) -> Callable:
        """``fn`` timed as span ``name``; ``sized`` also counts len(result)."""
        clock = time.perf_counter
        stack = self._child
        push = stack.append
        pop = stack.pop
        cell = self._cell(name)

        def traced(*args, **kwargs):
            push(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed
                cell[1] += elapsed - pop()
                cell[2] += 1
                stack[-1] += elapsed
            if sized:
                cell[3] += len(result)
            return result

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(fn, name)(*args, **kwargs)

    def wrap_methods(self, obj, names, name: str) -> None:
        """Replace ``obj.<m>`` for each ``m`` in ``names`` on the instance."""
        for method in names:
            setattr(obj, method, self.wrap(getattr(obj, method), name))

    @contextlib.contextmanager
    def trace_generators(self):
        """Time ``materialize`` of both trace-generator classes."""
        originals = [(cls, cls.materialize)
                     for cls in (TraceGenerator, HammerTraceGenerator)]
        try:
            for cls, fn in originals:
                cls.materialize = self.wrap(fn, "workloads.materialize",
                                            sized=True)
            yield
        finally:
            for cls, fn in originals:
                cls.materialize = fn

    def merge(self, cells: Dict[str, list]) -> None:
        for name, values in cells.items():
            cell = self._cell(name)
            for i, value in enumerate(values):
                cell[i] += value

    def scale(self, divisor: int) -> None:
        """Per-pass figures from totals over ``divisor`` identical passes."""
        for cell in self.cells.values():
            cell[0] /= divisor
            cell[1] /= divisor
            cell[2] //= divisor
            cell[3] //= divisor


def simulate(job: Job, obs: Optional[Observability] = None,
             spans: Optional[Spans] = None, reference: bool = False):
    """One full simulation of ``job``: build, construct ``System``, run.

    The same steps every engine job pays (``experiments/engine.py``);
    with ``spans`` the layer boundaries are wrapped per instance.
    Returns ``(system, result, observer)``.
    """
    mitigation = job.scheme.build()
    observer = job.faults.build() if job.faults is not None else None
    if observer is not None and obs is not None:
        observer.attach_obs(obs)
    if spans is None:
        system = System(list(job.profiles), mitigation, observer=observer,
                        config=job.config, obs=obs)
        return system, system.run(reference=reference), observer
    spans.wrap_methods(mitigation, MITIGATION_HOOKS, "mitigations.hook")
    spans.wrap_methods(mitigation, ("translate",), "mitigations.translate")
    if observer is not None:
        spans.wrap_methods(observer, OBSERVER_HOOKS, "faults.hook")
    with spans.trace_generators():
        system = spans.call("sim.build", System, list(job.profiles),
                            mitigation, observer=observer,
                            config=job.config, obs=obs)
    spans.wrap_methods(system.mc, ("enqueue",), "controller.enqueue")
    spans.wrap_methods(system.mc, ("drain",), "controller.drain")
    for bank in system.device.banks.values():
        spans.wrap_methods(bank, BANK_COMMANDS, "dram.issue")
    result = spans.call("sim.run", system.run, reference=reference)
    return system, result, observer


def count(system, result, observer) -> Dict[str, int]:
    """The outcome counters of one finished simulation."""
    stats = result.stats
    mc = system.mc
    report = observer.report() if observer is not None else None
    return {
        "acts": stats.acts,
        "reads": stats.reads,
        "writes": stats.writes,
        "refreshes": result.refreshes,
        "rfms": result.rfms,
        "commands": (stats.acts + stats.precharges + stats.reads
                     + stats.writes + result.refreshes + result.rfms),
        # Scan counters only accumulate with the metric registry on.
        "cand_evals": mc.cand_evals,
        "cand_hits": mc.cand_hits,
        "cand_recomputes": mc.cand_recomputes,
        "bits_injected": report["counts"]["bits_injected"] if report else 0,
    }


class TracedWorker:
    """``Engine(worker=...)`` callable: the engine's job with spans.

    Runs each job exactly as the engine's default worker does (metric
    registry on, fault observer attached) and returns the same payload,
    so what gets cached is unchanged.  The spans, counters and busy time
    of each job go to their own JSON file under ``out_dir``.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def __call__(self, job: Job) -> Dict:
        start = time.perf_counter()
        spans = Spans()
        obs = Observability(metrics=True)
        system, result, observer = simulate(job, obs=obs, spans=spans)
        faults = observer.report() if observer is not None else None
        payload = JobResult.from_system_result(
            result, metrics=obs.summary, faults=faults).to_dict()
        record = {"spans": spans.cells,
                  "counts": count(system, result, observer),
                  "busy_s": time.perf_counter() - start}
        path = os.path.join(self.out_dir, f"{uuid.uuid4().hex}.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
        return payload


def layer_metrics(spans: Spans, counts: Dict[str, int],
                  engine: Optional[Dict[str, float]] = None,
                  obs_ratio: float = 0.0,
                  overhead: float = 0.0) -> Dict[str, float]:
    """Every per-layer metric, from one traced pass's spans and counters.

    ``*_self_s`` and the leaf layers' ``*_s`` are self times (nested
    traced spans excluded); the other ``*_s`` are totals of the calls
    into that entry point.  ``engine`` carries the engine/driver/cache
    figures of the sweep workload; layers a workload never enters read 0.
    """
    engine = engine or {}
    t, s, n = spans.total, spans.self_time, spans.calls
    evals = counts["cand_evals"]
    columns = counts["reads"] + counts["writes"]
    return {
        "workloads.materialize_s": t("workloads.materialize"),
        "workloads.requests_generated": spans.items("workloads.materialize"),
        "sim.build_s": t("sim.build"),
        "sim.run_s": t("sim.run"),
        "sim.loop_self_s": s("sim.run"),
        "controller.enqueue_s": t("controller.enqueue"),
        "controller.drain_calls": n("controller.drain"),
        "controller.drain_self_s": s("controller.drain"),
        "controller.commands": counts["commands"],
        "controller.cand_evals": evals,
        "controller.cand_recomputes": counts["cand_recomputes"],
        "controller.cand_hit_rate": (counts["cand_hits"] / evals
                                     if evals else 0.0),
        "controller.rfms": counts["rfms"],
        "dram.issue_s": s("dram.issue"),
        "dram.acts": counts["acts"],
        "dram.refreshes": counts["refreshes"],
        # BankStats.row_hits counts every column command, so the hit
        # ratio is derived from ACTs per column command instead.
        "dram.row_buffer_hit_ratio": (1.0 - counts["acts"] / columns
                                      if columns else 0.0),
        "mitigations.hook_s": (s("mitigations.hook")
                               + s("mitigations.translate")),
        "mitigations.hook_calls": (n("mitigations.hook")
                                   + n("mitigations.translate")),
        "mitigations.translate_calls": n("mitigations.translate"),
        "faults.hook_s": s("faults.hook"),
        "faults.hook_calls": n("faults.hook"),
        "faults.bits_injected": counts["bits_injected"],
        "obs.metrics_on_ratio": obs_ratio,
        "engine.run_s": engine.get("run_s", 0.0),
        "engine.jobs_unique": engine.get("jobs_unique", 0),
        "engine.executed": engine.get("executed", 0),
        "engine.cache_hits": engine.get("cache_hits", 0),
        "engine.worker_busy_s": engine.get("worker_busy_s", 0.0),
        "engine.worker_utilization": engine.get("worker_utilization", 0.0),
        "driver.plan_fold_s": engine.get("plan_fold_s", 0.0),
        "cache.get_s": engine.get("get_s", 0.0),
        "cache.get_calls": engine.get("get_calls", 0),
        "cache.put_s": engine.get("put_s", 0.0),
        "cache.put_calls": engine.get("put_calls", 0),
        "trace.overhead": overhead,
    }
