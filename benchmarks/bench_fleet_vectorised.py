"""Experiment ``fleet-vectorised``: the per-chunk outcome memo vs the object kernel.

``backend="auto"`` gives each chunk an outcome memo: one kernel run
per distinct ``(scenario, enforcement, duration, actions)`` behaviour
key among vehicles whose actions are all seed-independent, the cached
outcome re-stamped onto every later vehicle with that key.  This
experiment measures what that buys at fleet scale: single-worker
vehicles/sec for every registered scenario through both backends, with
the fingerprint asserted identical pair by pair, and the memo hit rate
(1 - kernel runs / vehicles) read from the session's telemetry.

The chunk is the whole fleet (``chunk_size=vehicles``): the memo lives
for one chunk, so its wins grow with the number of same-behaviour
vehicles per chunk.  Scenarios whose scripts draw many distinct
behaviour keys (or whose vehicles all fuzz, like ``fuzz_probe``) sit
near 1.0x by design -- the acceptance floor applies to the *best*
memoisable scenario, and the JSON report records every ratio so a
regression anywhere is visible.
"""

from __future__ import annotations

import os
import time

from repro.api import ExperimentConfig, FleetSession
from repro.fleet.scenarios import get_scenario, registered_scenarios
from repro.fleet.vectorised import scenario_backend_eligibility

VEHICLES = int(os.environ.get("BENCH_FLEET_VEHICLES", "510"))
WARMUP_VEHICLES = 8
SEED = 2018

#: The acceptance criterion: the memo reaches >=3x single-worker
#: vehicles/sec on at least one registered scenario.
MIN_BEST_SPEEDUP = 3.0


def _measure(scenario: str, backend: str):
    """Single-worker vehicles/sec with the whole fleet as one chunk.

    Returns ``(result, vehicles/sec, kernel runs)``; kernel runs come
    from a separate telemetry-on run so the timed run pays no telemetry.
    """

    def config(fleet_size: int, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            scenario=scenario,
            vehicles=fleet_size,
            seed=seed,
            workers=1,
            chunk_size=fleet_size,
            backend=backend,
        )

    with FleetSession(config(WARMUP_VEHICLES, 1)) as session:
        session.run()
        start = time.perf_counter()
        (_, result), = session.run_matrix([config(VEHICLES, SEED)])
        elapsed = time.perf_counter() - start
    with FleetSession(config(VEHICLES, SEED), telemetry=True) as session:
        session.run()
        kernel_runs = session.metrics_snapshot().counter("vehicles.simulated")
    return result, VEHICLES / elapsed, kernel_runs


def test_bench_fleet_vectorised(bench_json):
    """The memo reaches >=3x object-kernel vehicles/sec on >=1 scenario."""
    report: dict[str, dict] = {}
    best_speedup = 0.0
    best_scenario = None
    for scenario in registered_scenarios():
        eligibility = scenario_backend_eligibility(get_scenario(scenario.name))
        object_result, object_vps, _ = _measure(scenario.name, "object")
        memo_result, memo_vps, kernel_runs = _measure(scenario.name, "auto")
        assert memo_result.fingerprint() == object_result.fingerprint(), (
            f"{scenario.name}: memoised fingerprint diverged from the object kernel"
        )
        speedup = memo_vps / max(object_vps, 1e-9)
        hit_rate = 1.0 - kernel_runs / VEHICLES
        if eligibility["memoisable"] and speedup > best_speedup:
            best_speedup, best_scenario = speedup, scenario.name

        tag = "memoisable" if eligibility["memoisable"] else "object-only"
        print(f"\n=== {scenario.name} ({VEHICLES} vehicles, 1 worker, {tag}) ===")
        print(f"{'object kernel':16s} {object_vps:9.1f} veh/s   1.00x")
        print(f"{'auto (memo)':16s} {memo_vps:9.1f} veh/s   {speedup:.2f}x")
        print(f"memo hit rate {hit_rate:.3f} ({kernel_runs} kernel runs)")
        print(f"fingerprint {object_result.fingerprint()[:16]} (identical)")

        report[scenario.name] = {
            "vehicles": VEHICLES,
            "memoisable": eligibility["memoisable"],
            "object_vehicles_per_second": round(object_vps, 2),
            "memo_vehicles_per_second": round(memo_vps, 2),
            "speedup": round(speedup, 3),
            "kernel_runs": kernel_runs,
            "memo_hit_rate": round(hit_rate, 4),
            "fingerprint": object_result.fingerprint(),
        }

    print(
        f"\nbest memoisable speedup: {best_speedup:.2f}x on {best_scenario} "
        f"(asserted floor {MIN_BEST_SPEEDUP}x)"
    )
    bench_json.record(
        "fleet_vectorised",
        {
            "seed": SEED,
            "asserted_floor": MIN_BEST_SPEEDUP,
            "best_speedup": round(best_speedup, 3),
            "best_scenario": best_scenario,
            "scenarios": report,
        },
    )
    assert best_speedup >= MIN_BEST_SPEEDUP, (
        f"best memoisable speedup {best_speedup:.2f}x on {best_scenario} "
        f"is below the {MIN_BEST_SPEEDUP}x floor"
    )
