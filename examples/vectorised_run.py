"""Outcome memo quickstart: ``backend="auto"``, parity, telemetry.

Shows the ``backend`` axis of :class:`repro.api.ExperimentConfig` end
to end: per-scenario memo eligibility, an ``"auto"`` session whose
chunks share one kernel run per behaviour key, the telemetry counters
that expose the memo's economics (distinct keys per chunk, fallback
vehicles), and the contract that makes the memo safe to enable -- the
fleet fingerprint is bit-identical to the object kernel's.

Run with::

    python examples/vectorised_run.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExperimentConfig, FleetSession
from repro.fleet.scenarios import registered_scenarios
from repro.fleet.vectorised import scenario_backend_eligibility

SCENARIO = "baseline_cruise"
VEHICLES = 510
SEED = 2018


def main() -> None:
    # 1. Eligibility is a property of each scenario's action scripts:
    #    fuzzing draws per-vehicle seeded randomness, so every fuzz_probe
    #    vehicle runs its own kernel.
    print("== Memo eligibility per registered scenario ==")
    for scenario in registered_scenarios():
        report = scenario_backend_eligibility(scenario)
        verdict = "memoisable" if report["memoisable"] else "object-only"
        print(f"{scenario.name:24s} {verdict}")
        if report["reason"]:
            print(f"{'':24s}   {report['reason']}")
    print()

    # 2. backend="auto" turns the memo on.  The whole fleet as one chunk
    #    maximises its win: same-behaviour vehicles share one kernel run.
    config = ExperimentConfig(
        scenario=SCENARIO,
        vehicles=VEHICLES,
        seed=SEED,
        workers=1,
        chunk_size=VEHICLES,
        backend="auto",
    )
    with FleetSession(config, telemetry=True) as session:
        result = session.run()
        snapshot = session.metrics_snapshot()
    print(f"== {SCENARIO}: {VEHICLES} vehicles, backend='auto' ==")
    print(f"fingerprint : {result.fingerprint()}")
    print(f"vehicles/s  : {result.vehicles_per_second:.1f}")
    print()

    # 3. The memo's economics, straight from the telemetry registry:
    #    how many chunks ran with it, how few kernel runs they collapsed
    #    to, and how many vehicles had to run their own kernel.
    chunks = snapshot.counter("backend.vectorised.chunks")
    vehicles = snapshot.counter("backend.vectorised.vehicles")
    keys = snapshot.counter("backend.vectorised.classes")
    fallbacks = snapshot.counter("backend.fallback_vehicles")
    print("== Memo telemetry ==")
    print(f"memo chunks         : {chunks}")
    print(f"memoisable vehicles : {vehicles}")
    print(f"behaviour keys      : {keys}")
    print(f"fallback vehicles   : {fallbacks}")
    if keys:
        print(f"kernel runs saved   : {vehicles - keys} "
              f"({vehicles / keys:.1f} vehicles per kernel run)")
    print()

    # 4. The contract: the object kernel produces the same fingerprint,
    #    bit for bit, as the tier-1 parity suite asserts per scenario.
    with FleetSession(config.with_overrides(backend="object")) as session:
        baseline = session.run()
    assert baseline.fingerprint() == result.fingerprint()
    print("object-kernel fingerprint is identical:", baseline.fingerprint())


if __name__ == "__main__":
    main()
