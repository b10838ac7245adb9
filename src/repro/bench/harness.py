"""Pinned scheduler benchmarks and the report/regression machinery.

Every profile is fully seeded: the simulated outcome (cycles, command
counts) is deterministic, so ``cycles / wall_seconds`` is a clean
throughput metric for the command-level hot path.  Wall time is the only
noisy quantity; one timing loop (:func:`_measure`) serves the bench
run and both overhead gates.

The report format (schema ``shadow-repro-bench/1``) keeps one entry per
variant (``quick`` / ``full``) so CI's quick runs compare against the
committed quick baseline rather than against full-length numbers.
"""

from __future__ import annotations

import cProfile
import json
import platform
import pstats
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim import System, SystemConfig
from repro.spec import FaultSpec, SchemeSpec
from repro.workloads.trace import WorkloadProfile

SCHEMA = "shadow-repro-bench/1"

#: Measurement shape (:func:`_measure`): each timed block covers at
#: least this much wall (fast profiles run several times per block),
#: and the overhead gates' interleaved off/on blocks repeat for
#: ``_GATE_ROUNDS`` rounds.
_BLOCK_SECONDS = 0.25
_MAX_RUNS_PER_BLOCK = 16
_GATE_ROUNDS = 9

#: Overhead-gate bounds (fraction of off-leg wall) per "on" leg kind.
OVERHEAD = {"obs": 0.15, "faults": 0.20}

#: Requests-per-thread divisor for the quick (CI) variant.
QUICK_DIVISOR = 8

# -- pinned workloads -----------------------------------------------------------

#: Streaming with high row-buffer locality: the open-row hit scan is the
#: hot path (FR-FCFS serves long runs of column commands per ACT).
_HIT_HEAVY = WorkloadProfile(
    name="bench-hit", mpki=50.0, row_buffer_locality=0.92,
    write_fraction=0.2, footprint_pages=256, sequential=True)

#: Near-zero locality over a wide footprint: almost every access is an
#: ACT/PRE pair, stressing the demand-candidate and rank-timing paths.
_CONFLICT_HEAVY = WorkloadProfile(
    name="bench-conflict", mpki=50.0, row_buffer_locality=0.05,
    write_fraction=0.3, footprint_pages=8192, zipf_alpha=0.4)

#: Low-intensity traffic whose inter-request gaps dwarf tREFI: the
#: refresh/idle-wake machinery dominates the event count.
_REFRESH_DOMINATED = WorkloadProfile(
    name="bench-refresh", mpki=0.6, row_buffer_locality=0.3,
    write_fraction=0.25, footprint_pages=1024)

#: Many mostly-idle threads with even sparser traffic than
#: ``bench-refresh``: nearly every simulated cycle is fast-forwarded, so
#: the event loop's horizon selection (not command issue) is the hot
#: path being measured.
_IDLE_HEAVY = WorkloadProfile(
    name="bench-idle", mpki=0.25, row_buffer_locality=0.4,
    write_fraction=0.25, footprint_pages=2048)


@dataclass(frozen=True)
class BenchProfile:
    """One pinned, seeded benchmark configuration.

    The mitigation is a declarative :class:`~repro.spec.SchemeSpec`
    (central-registry name + parameters) rather than a factory callable,
    so a profile -- like an engine job -- is plain, serialisable data.
    """

    name: str
    description: str
    workload: WorkloadProfile
    threads: int
    requests_per_thread: int
    seed: int
    scheme: SchemeSpec = field(
        default_factory=lambda: SchemeSpec("none"))
    enable_refresh: bool = True
    #: Optional in-loop fault injection (a declarative FaultSpec); the
    #: injector rides the controller's observer seam and never perturbs
    #: the simulated outcome, only wall time.
    faults: Optional[FaultSpec] = None

    def build(self, quick: bool, obs=None, observer=None) -> System:
        requests = self.requests_per_thread
        if quick:
            requests = max(64, requests // QUICK_DIVISOR)
        config = SystemConfig(requests_per_thread=requests, seed=self.seed,
                              enable_refresh=self.enable_refresh)
        if observer is None and self.faults is not None:
            observer = self.faults.build()
        return System([self.workload] * self.threads,
                      self.scheme.build(), observer=observer,
                      config=config, obs=obs)


BENCH_PROFILES: Dict[str, BenchProfile] = {
    p.name: p for p in (
        BenchProfile(
            name="hit-heavy",
            description="streaming row-buffer hits, no mitigation",
            workload=_HIT_HEAVY, threads=4,
            requests_per_thread=12000, seed=101),
        BenchProfile(
            name="conflict-heavy",
            description="row-miss traffic over a wide footprint",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=4000, seed=202),
        BenchProfile(
            name="shadow-rfm",
            description="SHADOW at RAAIMT=32: RFM-heavy + translation",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=3000, seed=303,
            scheme=SchemeSpec("shadow-raw", (("raaimt", 32),))),
        BenchProfile(
            name="refresh-dominated",
            description="sparse traffic; REF/idle-wake dominates events",
            workload=_REFRESH_DOMINATED, threads=2,
            requests_per_thread=1500, seed=404),
        BenchProfile(
            name="idle-heavy",
            description="many near-idle threads; event-horizon "
                        "fast-forward dominates",
            workload=_IDLE_HEAVY, threads=16,
            requests_per_thread=250, seed=505),
        BenchProfile(
            name="tracker-heavy",
            description="row-miss traffic into a composed tracker "
                        "scheme (DAPPER at a low threshold): per-ACT "
                        "observe, frequent RFM TRR work, REF-window "
                        "resets",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=3000, seed=606,
            scheme=SchemeSpec("dapper", (("hcnt", 1024),))),
        BenchProfile(
            name="faults-on",
            description="row-miss traffic with in-loop fault injection "
                        "at a tiny threshold: per-ACT disturbance "
                        "accumulation plus live ECC/recovery work",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=3000, seed=707,
            faults=FaultSpec(hcnt=64, policy="retire", seed=707)),
    )
}


# -- measurement ------------------------------------------------------------------

def _profile_top(profiler: cProfile.Profile, top_n: int) -> List[Dict]:
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, lineno, name = func
        rows.append({
            "function": f"{Path(filename).name}:{lineno}({name})",
            "ncalls": nc,
            "tottime_s": round(tt, 4),
            "cumtime_s": round(ct, 4),
        })
    rows.sort(key=lambda r: r["cumtime_s"], reverse=True)
    return rows[:top_n]


Leg = Callable[[BenchProfile, bool], Tuple[System, Optional[object]]]


def _bare(profile: BenchProfile, quick: bool):
    """The uninstrumented leg: the profile as pinned."""
    return profile.build(quick), None


def _measure(profile: BenchProfile, quick: bool, legs: Sequence[Leg],
             rounds: int):
    """Time each of ``legs`` over ``rounds`` interleaved blocks.

    A leg is ``(profile, quick) -> (system, closeable)`` (closeable may
    be ``None``).  A ~20ms quick profile timed alone jitters by +-50%
    per draw on a shared host, so one bare probe run calibrates
    ``inner``: each timed block runs the leg that many times back to
    back, covering at least ``_BLOCK_SECONDS`` of wall (at most
    ``_MAX_RUNS_PER_BLOCK`` runs).  Each round times one block per leg,
    the order reversing every round so load drift and within-round
    effects (GC debt, a burst spanning one block) hit every leg alike.

    Returns ``(probe, inner, walls)``: the probe's result, the runs per
    block, and per leg the per-run wall of each block.  Raises
    ``RuntimeError`` if any run of any leg simulates a different cycle
    count from the probe -- instrumentation must never perturb the
    simulated outcome.
    """
    def block(leg: Leg, inner: int):
        """Wall time of ``inner`` fresh ``leg`` runs back to back, and
        their results; builds and closes stay outside the timed region."""
        pairs = [leg(profile, quick) for _ in range(inner)]
        t0 = time.perf_counter()
        results = [system.run() for system, _closer in pairs]
        wall = time.perf_counter() - t0
        for _system, closer in pairs:
            if closer is not None:
                closer.close()
        return wall, results

    probe_wall, (probe,) = block(_bare, 1)
    inner = min(_MAX_RUNS_PER_BLOCK, max(1, round(
        _BLOCK_SECONDS / max(probe_wall, 1e-6))))
    walls: List[List[float]] = [[] for _ in legs]
    order = list(enumerate(legs))
    for _ in range(rounds):
        for i, leg in order:
            wall, results = block(leg, inner)
            for result in results:
                if result.cycles != probe.cycles:
                    raise RuntimeError(
                        f"{profile.name}: leg {leg.__name__} changed the "
                        f"simulated outcome ({probe.cycles} vs "
                        f"{result.cycles} cycles)")
            walls[i].append(wall / inner)
        order.reverse()
    return probe, inner, walls


def _entry(result, wall: float, inner: int) -> Dict:
    """Report fields for one measured leg at per-run ``wall``; the
    simulated counts are the probe's, which every leg reproduced."""
    return {
        "requests": result.requests_issued,
        "cycles": result.cycles,
        "acts": result.stats.acts,
        "row_hits": result.stats.row_hits,
        "refreshes": result.refreshes,
        "rfms": result.rfms,
        "wall_s": round(wall, 4),
        "cycles_per_s": round(result.cycles / wall, 1),
        "runs_per_block": inner,
    }


def _profiles(names: Optional[List[str]],
              default: List[str]) -> List[BenchProfile]:
    """The named profiles (``default`` when ``names`` is None)."""
    names = default if names is None else names
    unknown = sorted(set(names) - set(BENCH_PROFILES))
    if unknown:
        raise ValueError(f"unknown bench profiles: {unknown}; "
                         f"choose from {sorted(BENCH_PROFILES)}")
    return [BENCH_PROFILES[name] for name in names]


def run_one(profile: BenchProfile, quick: bool = False, repeats: int = 1,
            with_cprofile: bool = False, top_n: int = 15) -> Dict:
    """Run one pinned profile; returns its report entry.

    The per-run wall is the *minimum* over ``repeats`` calibrated
    blocks (see :func:`_measure`): best of N, as the committed
    baselines were recorded.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    result, inner, (walls,) = _measure(profile, quick, [_bare], repeats)
    entry = {
        "description": profile.description,
        "quick": quick,
        "threads": profile.threads,
        **_entry(result, min(walls), inner),
    }
    if with_cprofile:
        system = profile.build(quick)
        profiler = cProfile.Profile()
        profiler.enable()
        system.run()
        profiler.disable()
        entry["cprofile_top"] = _profile_top(profiler, top_n)
    return entry


def run_bench(names: Optional[List[str]] = None, quick: bool = False,
              repeats: int = 1, with_cprofile: bool = False,
              log=print, keep_going: bool = False) -> Dict[str, Dict]:
    """Run the pinned profile set; returns ``{name: entry}``.

    With ``keep_going``, a profile that raises becomes an ``{"error":
    {"type", "message"}}`` entry and the sweep continues -- the report
    stays complete and :func:`check_regression` flags the failure --
    instead of one bad profile aborting the whole bench run.
    """
    results = {}
    for profile in _profiles(names, list(BENCH_PROFILES)):
        name = profile.name
        try:
            entry = run_one(profile, quick=quick, repeats=repeats,
                            with_cprofile=with_cprofile)
        except Exception as exc:
            if not keep_going:
                raise
            entry = {
                "description": profile.description,
                "quick": quick,
                "error": {"type": type(exc).__name__,
                          "message": str(exc)},
            }
            results[name] = entry
            if log is not None:
                log(f"{name:>18}: FAILED "
                    f"({type(exc).__name__}: {exc})")
            continue
        results[name] = entry
        if log is not None:
            log(f"{name:>18}: {entry['cycles']:>9} cycles in "
                f"{entry['wall_s']:.2f}s -> {entry['cycles_per_s']:>10.0f} "
                f"cycles/s")
    return results


def run_overhead(kind: str, names: Optional[List[str]] = None,
                 quick: bool = False, trace_dir=None,
                 log=print) -> Dict[str, Dict]:
    """Measure one instrumentation's overhead: each profile off vs on.

    ``kind`` picks the "on" leg and its gate bound in :data:`OVERHEAD`:

    * ``"obs"`` -- metrics, Chrome tracing (to ``trace_dir`` when
      given, an in-memory sink otherwise) and the snapshot sampler, the
      most expensive observability configuration;
    * ``"faults"`` -- a fresh :class:`~repro.faults.FaultInjector`
      (default :class:`~repro.spec.FaultSpec`) on the controller's
      observer seam, isolating the per-ACT accumulation cost.  Profiles
      that bake in their own ``faults`` (``faults-on``) are excluded:
      their off leg would not be injection-free.

    Both legs run interleaved on this host (:func:`_measure`), so the
    ratio cancels machine speed; the committed baseline report plays
    no part.  Each leg's estimate is the *second-smallest* of
    ``_GATE_ROUNDS`` blocks -- the plain minimum is an extreme
    statistic one lucky draw can skew, while means and medians absorb
    the host's multiplicative load bursts.  A profile whose first
    estimate exceeds the bound is measured once more and the lower
    estimate kept: load-burst noise only ever *inflates* an estimate,
    while a genuine regression shows up in both and still fails.

    Returns ``{name: {"off": entry, "on": entry, "overhead": fraction}}``.
    """
    bound = OVERHEAD[kind]
    if kind == "obs":
        from repro.obs import Observability
        if trace_dir is not None:
            trace_dir = Path(trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)

        def obs_on(profile, quick):
            if trace_dir is None:
                obs = Observability.in_memory(sample_interval=10_000)
            else:
                obs = Observability.to_chrome(
                    trace_dir / f"{profile.name}.trace.json",
                    sample_interval=10_000)
            return profile.build(quick, obs=obs), obs

        on_leg = obs_on
        profiles = _profiles(names, list(BENCH_PROFILES))
    else:
        def faults_on(profile, quick):
            return profile.build(quick, observer=FaultSpec().build()), None

        on_leg = faults_on
        profiles = _profiles(names, [n for n, p in BENCH_PROFILES.items()
                                     if p.faults is None])
        baked = [p.name for p in profiles if p.faults is not None]
        if baked:
            raise ValueError(f"profiles {baked} bake in fault injection; "
                             f"their off leg cannot be injection-free")
    results = {}
    for profile in profiles:
        attempts = []
        for _attempt in range(2):
            probe, inner, walls = _measure(profile, quick,
                                           [on_leg, _bare], _GATE_ROUNDS)
            on_wall, off_wall = (sorted(w)[1] for w in walls)
            attempts.append((on_wall / off_wall - 1.0, off_wall, on_wall,
                             inner))
            if attempts[-1][0] <= bound:
                break
        overhead, off_wall, on_wall, inner = min(attempts)
        if log is not None:
            log(f"{profile.name:>18}: off {off_wall:.3f}s, on "
                f"{on_wall:.3f}s (x{inner} runs/block) "
                f"-> {overhead:+.1%} overhead")
        results[profile.name] = {
            "off": _entry(probe, off_wall, inner),
            "on": _entry(probe, on_wall, inner),
            "overhead": round(overhead, 4),
        }
    return results


def check_overhead(results: Dict[str, Dict],
                   max_overhead: float) -> List[str]:
    """Failure messages for profiles whose on-vs-off overhead exceeds
    ``max_overhead`` (a fraction, e.g. 0.15)."""
    if max_overhead <= 0:
        raise ValueError("max_overhead must be positive")
    failures = []
    for name, entry in results.items():
        if entry["overhead"] > max_overhead:
            failures.append(
                f"{name}: overhead {entry['overhead']:+.1%} "
                f"exceeds {max_overhead:.0%}")
    return failures


# -- report I/O ---------------------------------------------------------------------

def load_report(path) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_report(path, variant: str, results: Dict[str, Dict],
                 extra: Optional[Dict] = None) -> Dict:
    """Merge ``results`` for ``variant`` into the report at ``path``.

    Existing entries for other variants (and any ``pre_pr`` reference
    section) are preserved so one file carries the whole trajectory.
    """
    path = Path(path)
    report = {}
    if path.exists():
        report = load_report(path)
    report.setdefault("schema", SCHEMA)
    report["host"] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    report.setdefault("variants", {})[variant] = results
    if extra:
        report.update(extra)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return report


def check_regression(results: Dict[str, Dict], baseline: Dict,
                     variant: str, max_regression: float) -> List[str]:
    """Compare ``results`` against a report's matching variant.

    Returns failure messages for every profile whose cycles/s dropped by
    more than ``max_regression`` (a fraction, e.g. 0.30).  Profiles
    missing from the baseline are skipped (new profiles are allowed).
    """
    if not 0 <= max_regression < 1:
        raise ValueError("max_regression must be in [0, 1)")
    base_variant = baseline.get("variants", {}).get(variant, {})
    failures = []
    for name, entry in results.items():
        if "error" in entry:
            failures.append(
                f"{name}: failed to run ({entry['error']['type']}: "
                f"{entry['error']['message']})")
            continue
        base = base_variant.get(name)
        if base is None:
            continue
        floor = base["cycles_per_s"] * (1.0 - max_regression)
        if entry["cycles_per_s"] < floor:
            failures.append(
                f"{name}: {entry['cycles_per_s']:.0f} cycles/s is below "
                f"{floor:.0f} (baseline {base['cycles_per_s']:.0f} "
                f"- {max_regression:.0%})")
    return failures
