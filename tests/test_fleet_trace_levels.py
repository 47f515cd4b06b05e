"""Fleet-level equivalence across trace retention levels.

The fleet fingerprint covers every deterministic per-vehicle field; the
tentpole contract is that the trace retention level (and the bounded
inbox that rides along with it) changes only where time and memory go,
never what the simulation computes.
"""

import pytest

from repro.can.trace import TraceLevel
from repro.api import ExperimentConfig, FleetSession
from repro.fleet.runner import DEFAULT_FLEET_INBOX_LIMIT, simulate_vehicle
from repro.fleet.scenarios import get_scenario

SEED = 77
VEHICLES = 6


@pytest.mark.parametrize("scenario", ["fleet_replay_storm", "mixed_ev_dos"])
def test_fleet_fingerprint_identical_across_trace_levels(scenario):
    results = {}
    for level in TraceLevel:
        config = ExperimentConfig(
            scenario=scenario, vehicles=VEHICLES, seed=SEED, workers=1, trace_level=level
        )
        with FleetSession(config) as session:
            results[level] = session.run()
    fingerprints = {r.fingerprint() for r in results.values()}
    assert len(fingerprints) == 1
    reference = results[TraceLevel.FULL]
    for result in results.values():
        assert result.frames_transmitted == reference.frames_transmitted
        assert result.frames_blocked == reference.frames_blocked
        assert result.attacks_attempted == reference.attacks_attempted
        assert result.attacks_mitigated == reference.attacks_mitigated
        assert result.latency_p50_s == reference.latency_p50_s
        assert result.latency_p99_s == reference.latency_p99_s


def test_config_accepts_string_trace_level():
    config = ExperimentConfig(scenario="baseline_cruise", vehicles=1, trace_level="ring")
    assert config.trace_level is TraceLevel.RING
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="baseline_cruise", vehicles=1, trace_level="verbose")


def test_simulate_vehicle_inbox_limit_does_not_change_outcome():
    spec = get_scenario("fleet_replay_storm").vehicle_specs(1, SEED)[0]
    bounded = simulate_vehicle(spec, trace_level="counters", inbox_limit=DEFAULT_FLEET_INBOX_LIMIT)
    unbounded = simulate_vehicle(spec, trace_level="full", inbox_limit=None)
    assert bounded.deterministic_tuple() == unbounded.deterministic_tuple()
