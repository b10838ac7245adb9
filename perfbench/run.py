"""Benchmark entry point.

    python3 perfbench/run.py --workload rfm-conflict --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the last
line of standard output is one JSON object carrying the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  The exit code is non-zero when the checkout has
no simulator to run.  See README.md for the workloads and metrics.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Workload start: set-up time counts from here, the simulator's
# imports included.
_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("rfm-conflict", "hammer-faults", "fig8-sweep")

#: Fresh-interpreter set-ups measured before and again after the timed
#: phase; with this process's own, their median spans the whole run, so
#: a short slow spell of the host does not decide it.
SETUP_SAMPLES_PER_SIDE = 3
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the seconds "
                             "it took, and exit")
    return parser.parse_args(argv)


def setup_samples(args: argparse.Namespace) -> list:
    """Set-up seconds of fresh interpreters running the same workload."""
    samples = []
    for _ in range(SETUP_SAMPLES_PER_SIDE):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S)
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        import suite
        workload = suite.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(repr(setup_s))
            return 0
        workload.expect(args.seed)
        if args.trace:
            attempted, failed, metrics = workload.traced(args.seconds)
            units = {name: ("s" if name.endswith("_s") else
                            "ratio" if name.endswith(("_rate", "_ratio",
                                                      "_utilization",
                                                      ".overhead"))
                            else "count")
                     for name in metrics}
        else:
            setups = [setup_s] + setup_samples(args)
            attempted, failed, metrics = workload.timed(args.seconds)
            metrics["peak_rss_mb"] = workload.peak_rss_mb()
            metrics["setup_s"] = statistics.median(
                setups + setup_samples(args))
            units = {"sim_requests_per_s": "1/s", "warm_s": "s",
                     "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still has its directory here
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value} {units[name]}")
    print(f"{args.workload}: error_rate = {failed / attempted} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
