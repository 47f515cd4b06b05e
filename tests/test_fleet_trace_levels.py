"""Trace retention levels and bounded inboxes at the config and
single-vehicle level.

Their fleet-level fingerprint neutrality is one case of the
registry-wide plan property in ``test_plan_neutrality.py``.
"""

import pytest

from repro.can.trace import TraceLevel
from repro.api import ExperimentConfig
from repro.fleet.runner import DEFAULT_FLEET_INBOX_LIMIT, simulate_vehicle
from repro.fleet.scenarios import get_scenario

SEED = 77


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
