"""The benchmark's workloads: inputs, expected outcomes and run loops.

Every workload is a closed loop with one client: the benchmark process
issues its operations back to back.  An operation is one full
simulation (``System`` construction plus ``run()``, the work every
engine job pays) or one pass of the Figure 8 sweep.  See README.md for
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import filecmp
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from layers import COUNTERS, Spans, TracedWorker, count, layer_metrics, simulate
from repro.experiments import fig8, redteam
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine, Job
from repro.obs import Observability
from repro.sim import SystemConfig
from repro.spec import scheme_spec
from repro.workloads.trace import WorkloadProfile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed whose expected outcomes are committed; any other seed is checked
#: against the reference loop, ``System.run(reference=True)``.
DEFAULT_SEED = 1

#: Worker processes of the sweep workload.
SWEEP_JOBS = 2
#: Warm sweep passes after each cold one.
WARM_PER_COLD = 20
#: Every this-many-th unique sweep job is rerun in-process with metrics
#: on and off for ``obs.metrics_on_ratio``.
OBS_SAMPLE_STRIDE = 9

#: Row-miss traffic over a wide footprint (the repository's
#: conflict-heavy bench profile): almost every access is an ACT/PRE
#: pair, so the scheduler's candidate scan and the RFM path dominate.
RFM_CONFLICT_PROFILE = WorkloadProfile(
    name="rfm-conflict", mpki=50.0, row_buffer_locality=0.05,
    write_fraction=0.3, footprint_pages=8192, zipf_alpha=0.4)
RFM_CONFLICT_THREADS = 4
RFM_CONFLICT_REQUESTS = 4000
RFM_CONFLICT_SCHEMES = (("none", {}), ("shadow", {"hcnt": 2048}),
                        ("dapper", {"hcnt": 1024}))

#: Red-team cells of the hammer-faults workload.
HAMMER_SCHEMES = ("none", "shadow")


def _failure(label: str, what: str) -> None:
    print(f"FAILED {label}: {what}", file=sys.stderr, flush=True)


def _rss_mb(who: int) -> float:
    """Peak resident memory from ``getrusage`` (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- outcomes --------------------------------------------------------------------

def conflict_outcome(result, observer) -> Dict:
    """What rfm-conflict pins per simulation."""
    stats = result.stats
    return {"cycles": result.cycles,
            "thread_finish_cycles": list(result.thread_finish_cycles),
            "acts": stats.acts, "reads": stats.reads,
            "writes": stats.writes, "rfms": result.rfms,
            "refreshes": result.refreshes}


def redteam_outcome(result, observer) -> Dict:
    """One red-team cell, as ``results/redteam_full.json`` records it."""
    report = observer.report()
    counts = report["counts"]
    first = report["first_flip_cycle"]
    return {
        "cycles": result.cycles,
        "acts": result.stats.acts,
        "time_to_first_flip_ns": (first * result.tck_ns
                                  if first is not None else None),
        "bits_injected": counts["bits_injected"],
        "corrected": counts["corrected"],
        "uncorrectable": counts["uncorrectable"],
        "silent": counts["silent"],
        "rows_flipped": report["rows_flipped"],
        "repairs": counts["repairs"],
        "retries": counts["retries"],
        "panics": counts["panics"],
        "degradation_events": report["degradation_events_total"],
        "panicked": report["panicked"],
    }


# -- in-process workloads ----------------------------------------------------------

class InProcess:
    """Full simulations run back to back in the benchmark process."""

    def __init__(self, jobs: Dict[str, Job],
                 outcome: Callable[..., Dict]):
        self.jobs = jobs
        self.outcome = outcome
        self.expected: Dict[str, Dict] = {}

    def pinned(self) -> Optional[Dict[str, Dict]]:
        """Committed expectations for the default seed, if any."""
        return None

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def expect(self, seed: int) -> None:
        """Load or compute the expected outcome of every operation."""
        pinned = self.pinned() if seed == DEFAULT_SEED else None
        if pinned is not None:
            self.expected = pinned
            return
        for label, job in self.jobs.items():
            _, result, observer = simulate(job, reference=True)
            self.expected[label] = self.outcome(result, observer)

    def _op(self, label: str, job: Job, **kwargs):
        """One checked simulation; returns ``(ok, system, result, obs)``."""
        try:
            system, result, observer = simulate(job, **kwargs)
        except Exception:
            _failure(label, traceback.format_exc())
            return False, None, None, None
        got = self.outcome(result, observer)
        if got != self.expected[label]:
            _failure(label, f"outcome {got} != {self.expected[label]}")
            return False, system, result, observer
        return True, system, result, observer

    def timed(self, seconds: float) -> Tuple[int, int, Dict[str, float]]:
        """Rounds over every operation until ``seconds`` have passed."""
        attempted = failed = requests = 0
        walls: List[float] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            for label, job in self.jobs.items():
                attempted += 1
                ok, _, result, _ = self._op(label, job)
                failed += not ok
                if result is not None:
                    requests += result.requests_issued
            walls.append(time.perf_counter() - began)
            if time.perf_counter() - start >= seconds:
                break
        # Rounds after the first find the process-level memos and lazily
        # imported providers warm.
        warm = walls[1:] or walls
        return attempted, failed, {
            "sim_requests_per_s": requests / sum(walls),
            "warm_s": sum(warm) / len(warm),
        }

    def traced(self, seconds: float) -> Tuple[int, int, Dict[str, float]]:
        """Each operation untraced, with metrics on, and traced."""
        attempted = failed = 0
        spans = Spans()
        counts = dict.fromkeys(COUNTERS, 0)
        wall = {"off": 0.0, "metrics": 0.0, "traced": 0.0}
        rounds = 0
        start = time.perf_counter()
        while True:
            rounds += 1
            for label, job in self.jobs.items():
                for mode, kwargs in (
                        ("off", {}),
                        ("metrics", {"obs": Observability(metrics=True)}),
                        ("traced", {"spans": spans})):
                    attempted += 1
                    began = time.perf_counter()
                    ok, system, result, observer = self._op(label, job,
                                                            **kwargs)
                    wall[mode] += time.perf_counter() - began
                    failed += not ok
                    if ok and mode == "metrics":
                        for key, value in count(system, result,
                                                observer).items():
                            counts[key] += value
            if time.perf_counter() - start >= seconds:
                break
        spans.scale(rounds)
        counts = {key: value // rounds for key, value in counts.items()}
        return attempted, failed, layer_metrics(
            spans, counts,
            obs_ratio=wall["metrics"] / wall["off"],
            overhead=wall["traced"] / wall["off"] - 1.0)


class RfmConflict(InProcess):
    """4 threads of row-miss traffic under none, SHADOW and DAPPER."""

    def __init__(self, seed: int, workdir: str):
        config = SystemConfig(requests_per_thread=RFM_CONFLICT_REQUESTS,
                              seed=seed)
        profiles = (RFM_CONFLICT_PROFILE,) * RFM_CONFLICT_THREADS
        super().__init__({
            name: Job(profiles, scheme_spec(name, **params), config)
            for name, params in RFM_CONFLICT_SCHEMES}, conflict_outcome)

    def pinned(self) -> Optional[Dict[str, Dict]]:
        with open(HERE / "expected_rfm_conflict.json") as handle:
            return json.load(handle)


class HammerFaults(InProcess):
    """The full red-team cells of none and SHADOW, faults injected."""

    def __init__(self, seed: int, workdir: str):
        grid = redteam.jobs("full", schemes=HAMMER_SCHEMES, seed=seed)
        super().__init__({f"{scheme}/{attack}": job
                          for (scheme, attack), job in grid.items()},
                         redteam_outcome)

    def pinned(self) -> Optional[Dict[str, Dict]]:
        with open(ROOT / "results" / "redteam_full.json") as handle:
            report = json.load(handle)
        if report["seed"] != DEFAULT_SEED:
            return None
        pinned = {}
        for label in self.jobs:
            scheme, attack = label.split("/")
            pinned[label] = report["schemes"][scheme][attack]
        return pinned


# -- the Figure 8 sweep ------------------------------------------------------------

class Fig8Sweep:
    """``run_spec(fig8.spec("smoke"))`` through a 2-worker engine.

    The spec keeps its own seed: its check is the committed figure.
    Each run sweeps into private cache directories under ``workdir``,
    so the cold pass is truly cold and ``results/`` is never touched.
    """

    def __init__(self, seed: int, workdir: str):
        self.spec = fig8.spec("smoke")
        self.workdir = workdir
        #: Peak RSS of the largest worker of the first cold pass.
        self.worker_rss_mb = 0.0
        self.expected: Dict = {}

    def expect(self, seed: int) -> None:
        with open(ROOT / "results" / "fig8_smoke.json") as handle:
            self.expected = json.load(handle)

    def peak_rss_mb(self) -> float:
        """The larger of this process's peak and the sweep's largest
        worker's."""
        return max(_rss_mb(resource.RUSAGE_SELF), self.worker_rss_mb)

    def _engine(self, cache_dir: str, **kwargs) -> Engine:
        return Engine(jobs=SWEEP_JOBS, cache_dir=cache_dir, **kwargs)

    def _pass(self, engine: Engine, cold: bool,
              spans: Optional[Spans] = None):
        """One checked sweep; returns ``(ok, wall, results)``."""
        captured: Dict = {}
        run = engine.run
        if spans is not None:
            run = spans.wrap(run, "engine.run")
            engine.cache.get = spans.wrap(engine.cache.get, "cache.get")
            engine.cache.put = spans.wrap(engine.cache.put, "cache.put")

        def capture(jobs):
            results = run(jobs)
            captured.update(results)
            return results

        engine.run = capture
        began = time.perf_counter()
        try:
            if spans is None:
                output = run_spec(self.spec, engine=engine)
            else:
                output = spans.call("driver.run_spec", run_spec, self.spec,
                                    engine=engine)
        except Exception:
            _failure("fig8", traceback.format_exc())
            return False, time.perf_counter() - began, captured
        wall = time.perf_counter() - began
        stats = engine.stats
        ok = output == self.expected and stats.failed == 0
        if cold:
            ok = ok and stats.executed == stats.unique \
                and stats.cache_hits == 0
        else:
            ok = ok and stats.executed == 0 \
                and stats.cache_hits == stats.unique
        if not ok:
            _failure("fig8", f"{'cold' if cold else 'warm'} pass: "
                             f"{stats.summary()}; output matches "
                             f"committed figure: {output == self.expected}")
        return ok, wall, captured

    def timed(self, seconds: float) -> Tuple[int, int, Dict[str, float]]:
        """Cycles of one cold pass on a fresh cache followed by warm
        passes on it, until ``seconds`` have passed."""
        attempted = failed = requests = 0
        cold: List[float] = []
        warm: List[float] = []
        start = time.perf_counter()
        while True:
            cache_dir = os.path.join(self.workdir, f"cold{len(cold)}")
            ok, wall, results = self._pass(self._engine(cache_dir),
                                           cold=True)
            attempted += 1
            failed += not ok
            requests += sum(r.requests_issued for r in results.values())
            cold.append(wall)
            if len(cold) == 1:
                # Workers of later passes fork from a parent whose heap
                # has grown; the first pass's are the ones reported.
                self.worker_rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)
            for _ in range(WARM_PER_COLD):
                ok, wall, _ = self._pass(self._engine(cache_dir), cold=False)
                attempted += 1
                failed += not ok
                warm.append(wall)
            if time.perf_counter() - start >= seconds:
                break
        return attempted, failed, {
            "sim_requests_per_s": requests / sum(cold),
            "warm_s": sum(warm) / len(warm),
        }

    def traced(self, seconds: float) -> Tuple[int, int, Dict[str, float]]:
        """Untraced and traced cold passes, traced warm passes, and the
        metrics-on ratio of a sample of the sweep's jobs."""
        start = time.perf_counter()
        untraced_dir = os.path.join(self.workdir, "untraced")
        ok, off_wall, _ = self._pass(self._engine(untraced_dir), cold=True)
        attempted, failed = 1, int(not ok)

        span_dir = os.path.join(self.workdir, "spans")
        traced_dir = os.path.join(self.workdir, "traced")
        os.makedirs(span_dir)
        engine = self._engine(traced_dir, worker=TracedWorker(span_dir))
        driver = Spans()
        ok, on_wall, results = self._pass(engine, cold=True, spans=driver)
        attempted += 1
        failed += not ok
        if not _same_tree(untraced_dir, traced_dir):
            _failure("fig8", "traced workers cached different payloads")
            failed += 1

        spans = Spans()
        counts = dict.fromkeys(COUNTERS, 0)
        busy = 0.0
        for name in os.listdir(span_dir):
            with open(os.path.join(span_dir, name)) as handle:
                record = json.load(handle)
            spans.merge(record["spans"])
            for key, value in record["counts"].items():
                counts[key] += value
            busy += record["busy_s"]
        run_s = driver.total("engine.run")
        stats = engine.stats
        figures = {"run_s": run_s, "jobs_unique": stats.unique,
                   "executed": stats.executed, "worker_busy_s": busy,
                   "worker_utilization": busy / (run_s * SWEEP_JOBS),
                   "put_s": driver.total("cache.put"),
                   "put_calls": driver.calls("cache.put")}

        warm: List[Spans] = []
        while (time.perf_counter() - start < seconds
               or len(warm) < WARM_PER_COLD):
            engine = self._engine(traced_dir)
            pass_spans = Spans()
            ok, _, _ = self._pass(engine, cold=False, spans=pass_spans)
            attempted += 1
            failed += not ok
            warm.append(pass_spans)
        figures.update(
            cache_hits=engine.stats.cache_hits,
            get_s=statistics.median(s.total("cache.get") for s in warm),
            get_calls=warm[-1].calls("cache.get"),
            plan_fold_s=statistics.median(
                s.self_time("driver.run_spec") for s in warm))

        # What every engine worker pays for its metric registry, on a
        # sample of the sweep's own jobs run in-process.
        wall = {"off": 0.0, "metrics": 0.0}
        for job in list(results)[::OBS_SAMPLE_STRIDE]:
            for mode, obs in (("off", None),
                              ("metrics", Observability(metrics=True))):
                attempted += 1
                began = time.perf_counter()
                _, result, _ = simulate(job, obs=obs)
                wall[mode] += time.perf_counter() - began
                if result.cycles != results[job].cycles:
                    _failure("fig8", f"in-process rerun of {job.spec} "
                                     f"gave {result.cycles} cycles")
                    failed += 1
        return attempted, failed, layer_metrics(
            spans, counts, engine=figures,
            obs_ratio=wall["metrics"] / wall["off"],
            overhead=on_wall / off_wall - 1.0)


def _same_tree(left: str, right: str) -> bool:
    """Whether two cache directories hold byte-identical files."""
    names = sorted(os.listdir(left))
    if names != sorted(os.listdir(right)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(left, right, names, shallow=False)
    return not mismatch and not errors


WORKLOADS = {
    "rfm-conflict": RfmConflict,
    "hammer-faults": HammerFaults,
    "fig8-sweep": Fig8Sweep,
}
