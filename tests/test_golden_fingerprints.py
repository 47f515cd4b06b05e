"""Golden results that must not move when the simulation code is refactored.

Each registered scenario's fingerprint at ``(12 vehicles, seed 2018)``
and one hand-built vehicle's full deterministic outcome are pinned as
literals.  A change that alters a single simulated bit -- event order,
a trace count, an RNG draw -- fails here, whatever path it took.  The
hand-built script is deliberately out of time order, with two actions
at the same time whose order changes the protected car's outcome, so
the replay order (time, then script position) is pinned too.
"""

import pytest

from repro.api import ExperimentConfig
from repro.api.session import run_experiment
from repro.fleet.runner import simulate_vehicle
from repro.fleet.scenarios import VehicleAction, VehicleSpec

GOLDEN_FINGERPRINTS = {
    "baseline_cruise": "7e027a0f2cc7fe9f2097e5e9c165e67ac3a6917b254edf1c85ca19815d2e156c",
    "fleet_replay_storm": "38d44c78ef59f78e10e7ecc82a5223fb9523a8026cef7e23fea2c109b8004b1c",
    "fuzz_probe": "a0d278f2fafc2f87a5419ddc7eb8232b521820d725cceeca80d5d9de0e93906c",
    "mixed_ev_dos": "b9edf78748255d773e10b19c553c4bb8a97d195bb7dc89fab01b8162a88d86b1",
    "staggered_ota_rollout": "5023d3aecef55874cc4d2aa92b4fe56b8c29d2e00ce77577d5e1d76defb548b9",
}


def hand_built_spec(enforcement, same_time_pair):
    return VehicleSpec(
        vehicle_id=7,
        scenario="hand_built",
        enforcement=enforcement,
        seed=11,
        duration_s=0.4,
        actions=(
            VehicleAction(0.25, "replay", {"messages": ["DOOR_UNLOCK_CMD"]}),
            *same_time_pair,
            VehicleAction(0.05, "fuzz", {"frames": 40}),
        ),
    )


PARK_THEN_DRIVE = (
    VehicleAction(0.1, "park_and_arm"),
    VehicleAction(0.1, "drive", {"accel": 70}),
)
DRIVE_THEN_PARK = PARK_THEN_DRIVE[::-1]

GOLDEN_OUTCOMES = [
    ("hpe+selinux", PARK_THEN_DRIVE,
     (7, "hand_built", "hpe+selinux", "0.7500000000000001", 306, 979, 1807, 2757, 36, 2, 2,
      "3.9999999999999776e-08", False)),
    ("hpe+selinux", DRIVE_THEN_PARK,
     (7, "hand_built", "hpe+selinux", "0.7500000000000001", 308, 982, 1823, 2774, 36, 2, 2,
      "3.9999999999999776e-08", False)),
    ("unprotected", PARK_THEN_DRIVE,
     (7, "hand_built", "unprotected", "0.7500000000000001", 308, 1109, 0, 0, 0, 2, 1,
      "0.0", False)),
]


@pytest.mark.parametrize("scenario", sorted(GOLDEN_FINGERPRINTS))
def test_scenario_fingerprint_is_pinned(scenario):
    result = run_experiment(ExperimentConfig(scenario, 12, seed=2018))
    assert result.fingerprint() == GOLDEN_FINGERPRINTS[scenario]


@pytest.mark.parametrize(
    ("enforcement", "pair", "expected"),
    GOLDEN_OUTCOMES,
    ids=["protected-park-then-drive", "protected-drive-then-park", "unprotected"],
)
def test_hand_built_outcome_is_pinned(builder, enforcement, pair, expected):
    outcome = simulate_vehicle(hand_built_spec(enforcement, pair), builder)
    assert outcome.deterministic_tuple() == expected
