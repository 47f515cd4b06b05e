"""Self-test of the benchmark itself, at the smallest sizes.

    python3 perfbench/selftest.py

Checks that a tiny run of every workload emits every metric named in
``BENCHMARK.json`` with its unit, timed and traced; that one corrupted
outcome and one failed service job each raise ``error_rate`` above 0
and fail the command; and that without the program the command fails
without printing a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--tiny",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return completed.returncode, result, completed.stdout + completed.stderr


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    def expect(condition: bool, message: str, output: str = "") -> None:
        print(("ok    " if condition else "FAIL  ") + message, flush=True)
        if not condition:
            failures.append(message)
            print(output[-2000:])

    for workload in benchmark["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = run("--workload", name, "--trace", str(trace))
            wanted = {m["name"]: m["unit"] for m in benchmark[key]}
            got = {n: m.get("unit") for n, m in (result or {}).get("metrics", {}).items()}
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: runs clean", output)
            expect(got == wanted, f"{name} trace={trace}: every {key} metric with its unit",
                   output)

    for name, fault in (("fuzz_churn", "outcome"), ("storm_pool2", "outcome"),
                        ("service_replan", "job")):
        code, result, output = run("--workload", name, "--trace", "0", "--fault", fault)
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"{name}: injected {fault} fault fails the command", output)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, output = run("--workload", "storm_pool2", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None, "without the program: fails, prints no result",
           output)

    print("selftest passed" if not failures else f"selftest FAILED: {len(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
