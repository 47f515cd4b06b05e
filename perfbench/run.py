"""The repository benchmark: one workload, timed, traced or checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload storm_pool2 --seed 0 --seconds 22 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and prints every per-layer
metric.  Both check every output (see ``workload.py``) and end with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every check passed.

Each workload runs in fresh interpreters started from here: a few
set-up probes (``setup_s`` is their median, with the main run's own
set-up) and one main run.  Traces go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("storm_pool2", "cruise_dedup", "fuzz_churn", "service_replan")

#: Fresh interpreters measured for ``setup_s``: the probes plus the main run.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0


def host_stamp() -> dict:
    """Where a figure was measured; figures from two hosts never compare."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": checkout_commit(),
    }


def checkout_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def run_child(role: str, args, deadline: float) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        command.append("--tiny")
    if args.fault:
        command += ["--fault", args.fault]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    completed = subprocess.run(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{role} run exited with code {completed.returncode}")
    return json.loads(lines[-1])


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end(main: dict, setups: list[float]) -> dict[str, float]:
    measure = main["measure"]
    latencies = measure["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "vehicles_per_s": measure["vehicles_per_s"],
        "jobs_per_s": measure["jobs_per_s"],
        "result_p50_s": percentile(latencies, 0.50),
        "result_p90_s": percentile(latencies, 0.90),
        "peak_rss_mib": main["peak_rss_mib"],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's self-test")
    parser.add_argument("--fault", choices=("outcome", "job"),
                        help="self-test: corrupt one outcome or fail one job")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    samples = 2 if args.tiny else SETUP_SAMPLES
    try:
        probes = [run_child("setup", args, deadline) for _ in range(samples - 1)]
        main_run = run_child("main", args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes] + [main_run["setup_s"]]
    check = main_run["check"]
    if args.trace:
        wanted = benchmark["per_layer"]
        phases = [p["phases"] for p in probes] + [main_run["phases"]]
        values = dict(main_run["layers"])
        for name in phases[0]:
            values[name] = statistics.median(p[name] for p in phases)
    else:
        wanted = benchmark["end_to_end"]
        values = end_to_end(main_run, setups)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    attempted, failed = check["attempted"], check["failed"]
    correct = failed == 0 and not check["errors"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"host {json.dumps(host_stamp(), sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        samples = len(main_run["measure"]["latencies"])
        print(f"  {'result_samples':<32} {samples:>14d} count")
    print(f"  {'error_rate':<32} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} failed)")
    if "trace_file" in main_run:
        print(f"  trace written to {main_run['trace_file']}")
    for error in check["errors"][:10]:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
