"""One benchmark workload in a fresh interpreter.

Run by ``perfbench/run.py``, never directly::

    python3 perfbench/workload.py --role main --workload cruise_dedup \\
        --seed 0 --seconds 22 --trace 0 --spawned-at <time.monotonic()>

``--role setup`` sets up and exits (one more ``setup_s`` sample);
``--role main`` sets up, measures for ``--seconds`` and checks every
output.  The last stdout line is a JSON object for the caller.

The program only ever sees the configs built here from ``--seed``.
Run ``i`` of a workload uses config seed ``seed * 100003 + i``, so no
two runs repeat an experiment and a cache across runs cannot turn the
benchmark into a replay.  Run 0 is the warm-up; it is checked like the
timed runs and, at the default seed, against ``perfbench/manifest.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

#: At most this many runs get a vehicle re-simulated on the faithful path.
FAITHFUL_CHECKS_MAX = 60

SERVICE_SCENARIOS = (
    "mixed_ev_dos",
    "fleet_replay_storm",
    "staggered_ota_rollout",
    "baseline_cruise",
)


@dataclasses.dataclass(frozen=True)
class FleetWorkload:
    scenario: str
    vehicles: int
    tiny_vehicles: int
    workers: int
    backend: str
    #: Simulate each run as one chunk instead of the default four.
    one_chunk: bool = False


@dataclasses.dataclass(frozen=True)
class ServiceWorkload:
    experiments: int
    vehicles: int
    tiny_experiments: int
    tiny_vehicles: int


# Sizes put one fleet run at 0.13-0.22 s on a 2-core x86 host, so a 22 s
# window yields about 100 runs or more: enough latency samples for a p90
# with ten samples beyond it.  baseline_cruise has 61 behaviour keys
# whatever the fleet size, so under the default four chunks a run costs
# 244 kernel runs (~0.6 s) at any size; one chunk per run keeps it at 61.
# A service burst is 4 experiments x 3 plans plus 1 exact resubmission.
WORKLOADS: dict[str, FleetWorkload | ServiceWorkload] = {
    "storm_pool2": FleetWorkload("fleet_replay_storm", 64, 16, 2, "object"),
    "cruise_dedup": FleetWorkload("baseline_cruise", 1000, 120, 1, "auto", True),
    "fuzz_churn": FleetWorkload("fuzz_probe", 24, 6, 1, "auto"),
    "service_replan": ServiceWorkload(4, 8, 2, 4),
}


def config_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


def load_manifest() -> dict:
    return json.loads((BENCH_DIR / "manifest.json").read_text(encoding="utf-8"))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_resource_tracker() -> None:
    """End the shared-memory resource tracker this process started.

    It would otherwise outlive us by a moment; the benchmark waits for
    every process it starts.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def flat_snapshot(snapshot) -> dict[str, float]:
    """Counters, and histogram sums/counts, as one flat name -> value map."""
    data = snapshot.to_dict()
    flat = {name: float(value) for name, value in data["counters"].items()}
    for name, hist in data["histograms"].items():
        flat[f"{name}#sum"] = float(hist["sum"])
        flat[f"{name}#count"] = float(hist["count"])
    return flat


def snapshot_delta(after: dict, before: dict) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def outcome_stats(result) -> dict:
    """The simulated statistics a speed-only change must leave identical."""
    return {
        "fingerprint": result.fingerprint(),
        "vehicles": result.vehicles,
        "frames_transmitted": result.frames_transmitted,
        "frames_blocked": result.frames_blocked,
        "frame_block_rate": result.frame_block_rate,
        "attack_mitigation_rate": result.attack_mitigation_rate,
    }


# ---------------------------------------------------------------------------
# Fleet workloads
# ---------------------------------------------------------------------------


class FleetBench:
    def __init__(self, name: str, spec: FleetWorkload, args) -> None:
        self.name = name
        self.spec = spec
        self.args = args
        self.vehicles = spec.tiny_vehicles if args.tiny else spec.vehicles
        self.next_index = 0
        self.runs: list[dict] = []
        self.session = None

    def config(self, index: int):
        from repro.api import ExperimentConfig

        return ExperimentConfig(
            scenario=self.spec.scenario,
            vehicles=self.vehicles,
            seed=config_seed(self.args.seed, index),
            workers=self.spec.workers,
            chunk_size=self.vehicles if self.spec.one_chunk else None,
            spec_transfer="shm",
            backend=self.spec.backend,
        )

    def setup(self, phases: dict) -> None:
        from repro.api import FleetSession

        start = time.perf_counter()
        self.session = FleetSession(self.config(0))
        _ = self.session.builder  # derives the policy
        phases["setup.derive_s"] = time.perf_counter() - start
        start = time.perf_counter()
        if self.spec.backend == "auto":
            from repro.fleet import vectorised

            if vectorised.numpy_available():
                vectorised.parity_gate()
        phases["setup.parity_gate_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.run_one()  # run 0: warm-up, checked like the rest
        phases["setup.first_run_s"] = time.perf_counter() - start

    def run_one(self, tracer=None) -> dict:
        session = self.session
        index = self.next_index
        self.next_index += 1
        config = self.config(index)
        sample_id = config.first_vehicle_id + (index * 37) % self.vehicles
        sampled = None
        start = time.perf_counter()
        with tracer.span("api.run") if tracer is not None else nullcontext():
            for outcome in session.iter_outcomes_for(config):
                if outcome.vehicle_id == sample_id:
                    sampled = outcome
        wall = time.perf_counter() - start
        if self.args.fault == "outcome" and index == 0 and sampled is not None:
            # Self-test hook: a wrong count in one streamed outcome.
            sampled = dataclasses.replace(
                sampled, frames_delivered=sampled.frames_delivered + 1
            )
        record = {
            "index": index,
            "config": config,
            "wall": wall,
            "result": session.last_result,
            "sample_id": sample_id,
            "sampled": sampled,
        }
        self.runs.append(record)
        return record

    def window(self, seconds: float, tracer=None) -> dict:
        records = []
        start = time.perf_counter()
        while True:
            records.append(self.run_one(tracer))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        return {
            "jobs": len(records),
            "elapsed": elapsed,
            "latencies": [r["wall"] for r in records],
            "vehicles": sum(r["result"].vehicles for r in records),
            "vehicles_per_s": statistics.median(
                r["result"].vehicles / r["wall"] for r in records
            ),
        }

    def restart_traced(self) -> None:
        """A fresh telemetry session, warmed up (its workers fork here)."""
        from repro.api import FleetSession

        self.session = FleetSession(self.config(self.next_index), telemetry=True)
        self.run_one()

    def snapshot(self) -> dict[str, float]:
        return flat_snapshot(self.session.metrics_snapshot())

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    def check(self) -> dict:
        """Faithful re-simulation of sampled vehicles, plus the manifest."""
        from repro.api import FleetSession
        from repro.can.trace import TraceLevel
        from repro.casestudy.builder import CaseStudyBuilder
        from repro.fleet import runner

        simulate = getattr(runner.simulate_vehicle, "__bench_original__",
                           runner.simulate_vehicle)
        builder = CaseStudyBuilder()
        attempted = failed = 0
        errors: list[str] = []
        stride = max(1, -(-len(self.runs) // FAITHFUL_CHECKS_MAX))
        checker = FleetSession(self.runs[0]["config"])  # only generates specs
        for position, record in enumerate(self.runs):
            config, result = record["config"], record["result"]
            attempted += config.vehicles
            if result is None or result.vehicles != config.vehicles:
                failed += config.vehicles
                errors.append(f"run {record['index']}: incomplete result")
                continue
            if position % stride:
                continue
            if record["sampled"] is None:
                failed += 1
                errors.append(f"run {record['index']}: sampled vehicle not streamed")
                continue
            spec = next(
                s for s in checker.iter_vehicle_specs(config)
                if s.vehicle_id == record["sample_id"]
            )
            faithful = simulate(
                spec, builder, trace_level=TraceLevel.FULL, inbox_limit=None,
                pool=None, compile_tables=False,
            )
            if faithful.deterministic_tuple() != record["sampled"].deterministic_tuple():
                failed += 1
                errors.append(
                    f"run {record['index']}: vehicle {record['sample_id']} "
                    "differs from its faithful re-simulation"
                )
        expected = load_manifest()["workloads"][self.name]
        if self.args.seed == expected["seed"] and not self.args.tiny:
            got = outcome_stats(self.runs[0]["result"])
            if got != expected["run0"]:
                failed += self.runs[0]["config"].vehicles
                errors.append(f"run 0 statistics {got} != manifest {expected['run0']}")
        return {
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "run0": outcome_stats(self.runs[0]["result"]),
        }


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


class ServiceBench:
    def __init__(self, name: str, spec: ServiceWorkload, args) -> None:
        self.name = name
        self.args = args
        self.experiments = spec.tiny_experiments if args.tiny else spec.experiments
        self.vehicles = spec.tiny_vehicles if args.tiny else spec.vehicles
        self.next_burst = 0
        self.jobs: list[dict] = []
        self.submit_ms: list[float] = []
        self.service = None
        self._tmp = None

    def experiment(self, burst: int, position: int):
        from repro.api import ExperimentConfig

        number = burst * self.experiments + position
        return ExperimentConfig(
            scenario=SERVICE_SCENARIOS[number % len(SERVICE_SCENARIOS)],
            vehicles=self.vehicles,
            seed=config_seed(self.args.seed, number),
        )

    def plans(self, base):
        from repro.api import ExperimentConfig

        kwargs = dict(seed=base.seed)
        return [
            ExperimentConfig.debug(base.scenario, base.vehicles, **kwargs),
            ExperimentConfig.throughput(base.scenario, base.vehicles, workers=2, **kwargs),
            ExperimentConfig.throughput(base.scenario, base.vehicles, workers=1, **kwargs),
        ]

    def start_service(self) -> None:
        from multiprocessing import resource_tracker

        from repro.service import ExperimentService, ServiceClient

        # The drain worker inherits this process's shared-memory tracker
        # instead of starting its own, which would outlive it unwaited.
        resource_tracker.ensure_running()
        OUT_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="service-")
        # poll_s is a deployment setting; 20 ms keeps an idle worker's
        # poll from adding up to 0.2 s to the first job of each burst.
        self.service = ExperimentService(
            Path(self._tmp.name) / "service.db", port=0, drain_workers=1, poll_s=0.02
        ).start()
        self.client = ServiceClient(self.service.url)

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def setup(self, phases: dict) -> None:
        from repro.api import ExperimentConfig, FleetSession

        start = time.perf_counter()
        self.start_service()
        self.burst()  # burst 0: warm-up, checked like the rest
        phases["setup.first_run_s"] = time.perf_counter() - start
        # The client derives its own policy only for the foreground
        # correctness runs; the service's worker forked before this.
        start = time.perf_counter()
        self.foreground = FleetSession(
            ExperimentConfig(scenario="baseline_cruise", vehicles=1)
        )
        _ = self.foreground.builder
        phases["setup.derive_s"] = time.perf_counter() - start
        phases["setup.parity_gate_s"] = 0.0

    def burst(self) -> dict:
        burst = self.next_burst
        self.next_burst += 1
        submissions = []
        for position in range(self.experiments):
            base = self.experiment(burst, position)
            for config in self.plans(base):
                submissions.append((base, config))
        # One exact resubmission: served by the dedup cache, never re-run.
        submissions.append(submissions[3 * (burst % self.experiments)])
        pending = []
        first_submit = time.perf_counter()
        for base, config in submissions:
            start = time.perf_counter()
            job = self.client.submit(config)
            self.submit_ms.append((time.perf_counter() - start) * 1e3)
            pending.append((base, config, job["id"], start))
        records = []
        for base, config, job_id, submitted in pending:
            payload = self.client.wait(job_id, timeout_s=90.0, poll_s=0.02)
            done = time.perf_counter()
            record = {
                "burst": burst,
                "experiment": base,
                "config": config,
                "state": payload["state"],
                "latency": done - submitted,
                "fingerprint": None,
                "vehicles": 0,
            }
            if payload["state"] == "done" and payload.get("result"):
                from repro.fleet.results import FleetResult

                result = FleetResult.from_dict(payload["result"])
                record["fingerprint"] = result.fingerprint()
                record["vehicles"] = result.vehicles
            records.append(record)
        self.jobs.extend(records)
        return {
            "jobs": len(records),
            "elapsed": time.perf_counter() - first_submit,
            "latencies": [r["latency"] for r in records],
            "vehicles": sum(r["vehicles"] for r in records),
        }

    def window(self, seconds: float, tracer=None) -> dict:
        bursts = []
        submitted_before = len(self.submit_ms)
        start = time.perf_counter()
        while True:
            bursts.append(self.burst())
            if time.perf_counter() - start >= seconds:
                break
        elapsed = sum(b["elapsed"] for b in bursts)
        vehicles = sum(b["vehicles"] for b in bursts)
        return {
            "jobs": sum(b["jobs"] for b in bursts),
            "elapsed": elapsed,
            "latencies": [x for b in bursts for x in b["latencies"]],
            "vehicles": vehicles,
            "vehicles_per_s": vehicles / elapsed,
            "experiments": len(bursts) * self.experiments,
            "submit_ms": statistics.median(self.submit_ms[submitted_before:]),
        }

    def restart_traced(self) -> None:
        """A fresh service, warmed up (its drain worker forks here)."""
        self.start_service()
        self.burst()

    def snapshot(self) -> dict[str, float]:
        return flat_snapshot(self.client.metrics())

    def check(self) -> dict:
        """Every plan of an experiment agrees with a foreground run."""
        attempted = len(self.jobs)
        failed = 0
        errors: list[str] = []
        by_experiment: dict = {}
        for job in self.jobs:
            by_experiment.setdefault(job["experiment"], []).append(job)
        for base, jobs in by_experiment.items():
            reference = self.foreground.run_config(base).fingerprint()
            for job in jobs:
                if job["state"] != "done":
                    failed += 1
                    errors.append(
                        f"job {job['config'].config_hash()[:12]} ended {job['state']}"
                    )
                elif job["fingerprint"] != reference:
                    failed += 1
                    errors.append(
                        f"{base.scenario} seed {base.seed}: a plan returned "
                        f"{job['fingerprint'][:12]}, foreground {reference[:12]}"
                    )
        self.foreground.close()
        first_burst = [
            job["fingerprint"] for job in self.jobs if job["burst"] == 0
        ][: 3 * self.experiments : 3]
        expected = load_manifest()["workloads"][self.name]
        if self.args.seed == expected["seed"] and not self.args.tiny:
            if first_burst != expected["burst0_fingerprints"]:
                failed += 3 * self.experiments
                errors.append("burst 0 fingerprints differ from the manifest")
        return {
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "burst0_fingerprints": first_burst,
        }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(bench, seconds: float) -> dict:
    """The end-to-end figures of one untraced window."""
    window = bench.window(seconds)
    bench.close()
    return {
        "jobs_per_s": window["jobs"] / window["elapsed"],
        "vehicles_per_s": window["vehicles_per_s"],
        "latencies": window["latencies"],
    }


def measure_traced(bench, tracer, seconds: float) -> dict:
    """An untraced half window, then a traced half on a fresh instance.

    Workers inherit the wrappers only if they fork after
    :func:`~tracing.instrument`, hence the restart; its warm-up stays
    out of the traced figures.
    """
    from tracing import instrument

    plain = bench.window(seconds / 2.0)
    bench.close()
    instrument(tracer)
    tracer.enabled = True
    bench.restart_traced()
    tracer.reset()
    before = bench.snapshot()
    traced = bench.window(seconds / 2.0, tracer)
    traced["snapshot"] = snapshot_delta(bench.snapshot(), before)
    tracer.enabled = False
    bench.close()
    traced["overhead_ratio"] = (plain["jobs"] / plain["elapsed"]) / (
        traced["jobs"] / traced["elapsed"]
    )
    return traced


def install_job_fault(bench: ServiceBench) -> None:
    """Self-test hook: the drain worker fails one chosen job.

    Installed before the service forks its worker, which inherits it.
    """
    from repro.api import FleetSession

    target = bench.plans(bench.experiment(1, 0))[2]
    original = FleetSession.run_config

    def run_config(session, config):
        if config == target:
            raise RuntimeError("injected job failure")
        return original(session, config)

    FleetSession.run_config = run_config


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced window
# ---------------------------------------------------------------------------


def layer_metrics(tracer, traced: dict) -> dict[str, float]:
    """Per-layer figures, per job, from spans and merged telemetry."""
    snap = traced["snapshot"]
    jobs = traced["jobs"]

    def counter(name: str) -> float:
        return snap.get(name, 0.0)

    def hist_sum(name: str) -> float:
        return snap.get(f"{name}#sum", 0.0)

    def total(name: str) -> float:
        return tracer.total_s.get(name, 0.0) + hist_sum(f"bench.total.{name}")

    def own(name: str) -> float:
        return tracer.self_s.get(name, 0.0) + hist_sum(f"bench.self.{name}")

    def count(name: str) -> float:
        return tracer.counts.get(name, 0) + counter(f"bench.count.{name}")

    def per_job(value: float) -> float:
        return value / jobs

    frames = count("frames_transmitted")
    hits, misses = counter("policy.cache_hits"), counter("policy.cache_misses")
    wait = hist_sum("phase.run.wait.wall_seconds")
    runs = counter("service.runs")
    experiments = traced.get("experiments", 0)
    return {
        "can.scheduler_s": per_job(total("can.scheduler")),
        "can.frames_transmitted": per_job(frames),
        "can.frames_delivered": per_job(count("frames_delivered")),
        "can.events": per_job(count("scheduler_events")),
        "can.us_per_frame": total("can.scheduler") / frames * 1e6 if frames else 0.0,
        "hpe.decisions": per_job(count("hpe_decisions")),
        "hpe.frames_blocked": per_job(count("frames_blocked")),
        "core.policy_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.policy_pushes": per_job(count("policy_pushes")),
        "fleet.kernel_runs": per_job(count("kernel_runs")),
        "fleet.simulate_s": per_job(total("fleet.kernel_run") + own("fleet.simulate")),
        "vectorised.classes": per_job(counter("backend.vectorised.classes")),
        "vectorised.fallback_vehicles": per_job(counter("backend.fallback_vehicles")),
        "vectorised.collapse_ratio": count("kernel_runs") / traced["vehicles"],
        "scenarios.spec_gen_s": per_job(total("scenarios.spec_gen")),
        "results.fold_s": per_job(total("results.fold")),
        "api.wait_s": per_job(wait),
        "api.run_s": per_job(total("api.run")),
        "api.unattributed_s": per_job(own("api.run") - wait),
        "transfer.encode_s": per_job(total("transfer.encode")),
        "transfer.decode_s": per_job(total("transfer.decode")),
        "transfer.shm_bytes": per_job(counter("shm.bytes_written")),
        "casestudy.acquire_s": per_job(total("casestudy.acquire")),
        "casestudy.builds": per_job(counter("pool.builds")),
        "casestudy.reuses": per_job(counter("pool.reuses")),
        "service.submit_ms": traced.get("submit_ms", 0.0),
        "service.runs": per_job(runs),
        "service.cache_hits": per_job(counter("service.cache_hits")),
        "service.runs_per_experiment": runs / experiments if experiments else 0.0,
        "service.exec_s": per_job(hist_sum("service.exec_seconds")),
        "resilience.retries": per_job(counter("resilience.retries")),
        "resilience.chunk_failures": per_job(counter("resilience.chunk_failures")),
        "trace.overhead_ratio": traced["overhead_ratio"],
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "main"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--fault", choices=("outcome", "job"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    phases: dict[str, float] = {}
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    import repro.api  # noqa: F401

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")
    spec = WORKLOADS[args.workload]
    if isinstance(spec, ServiceWorkload):
        import repro.service  # noqa: F401

        bench = ServiceBench(args.workload, spec, args)
    else:
        bench = FleetBench(args.workload, spec, args)
    phases["setup.import_s"] = time.perf_counter() - start
    if args.fault == "job":
        install_job_fault(bench)
    try:
        bench.setup(phases)
        ready_at = time.monotonic()
        report = {"phases": phases, "setup_s": ready_at - args.spawned_at}
        if args.role == "main":
            if args.trace:
                from tracing import Tracer

                tracer = Tracer()
                traced = measure_traced(bench, tracer, args.seconds)
                report["layers"] = layer_metrics(tracer, traced)
                trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
                tracer.dump(trace_path, {
                    "workload": args.workload,
                    "seed": args.seed,
                    "total_s": dict(tracer.total_s),
                    "self_s": dict(tracer.self_s),
                    "calls": dict(tracer.calls),
                    "worker_side": {
                        name: value for name, value in traced["snapshot"].items()
                        if name.startswith("bench.")
                    },
                })
                report["trace_file"] = str(trace_path.relative_to(ROOT))
            else:
                report["measure"] = measure(bench, args.seconds)
            # Before the checks, whose faithful re-simulations keep full traces.
            report["peak_rss_mib"] = peak_rss_mib()
            report["check"] = bench.check()
    finally:
        bench.close()
        stop_resource_tracker()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
