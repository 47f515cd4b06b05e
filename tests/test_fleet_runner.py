"""Tests for the fleet runner: per-vehicle simulation and worker invariance.

Script replay is covered here too: actions run in time order on the
car's own clock (same-time actions in script order), an action at
exactly ``duration_s`` still runs, later ones never do, and each
vehicle draws every ``fuzz`` campaign from one seeded stream.
"""

import random

import pytest

from repro.api import ExperimentConfig, FleetSession
from repro.casestudy.builder import CarPool
from repro.core.seeding import derive_seed
from repro.fleet import runner
from repro.fleet.runner import config_for_label, simulate_vehicle
from repro.fleet.scenarios import VehicleAction, VehicleSpec, get_scenario

#: Small fleet sizes keep the multiprocessing tests fast while still
#: exercising chunking across several workers.
SMALL_FLEET = 12


def run_fleet(scenario, vehicles, seed, **plan):
    config = ExperimentConfig(scenario=scenario, vehicles=vehicles, seed=seed, **plan)
    with FleetSession(config) as session:
        return session.run()


def make_spec(vehicle_id=0, enforcement="hpe+selinux", actions=(), duration_s=0.2, seed=11):
    return VehicleSpec(
        vehicle_id=vehicle_id,
        scenario="unit-test",
        enforcement=enforcement,
        seed=seed,
        duration_s=duration_s,
        actions=tuple(actions),
    )


class TestConfigLabels:
    def test_all_labels_resolve(self):
        assert config_for_label("unprotected") is None
        assert config_for_label("hpe-only").use_hpe
        assert not config_for_label("hpe-only").use_selinux
        assert config_for_label("selinux-only").use_selinux
        full = config_for_label("hpe+selinux")
        assert full.use_hpe and full.use_selinux

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError, match="unknown enforcement label"):
            config_for_label("mystery")


class TestSimulateVehicle:
    def test_outcome_reflects_the_spec(self, builder):
        spec = make_spec(vehicle_id=3, actions=[VehicleAction(0.0, "drive", {"accel": 70})])
        outcome = simulate_vehicle(spec, builder)
        assert outcome.vehicle_id == 3
        assert outcome.scenario == "unit-test"
        assert outcome.enforcement == "hpe+selinux"
        assert outcome.simulated_seconds >= spec.duration_s
        assert outcome.frames_transmitted > 0
        assert outcome.hpe_decisions > 0
        assert outcome.healthy

    def test_unprotected_vehicle_reports_no_enforcement_activity(self, builder):
        spec = make_spec(enforcement="unprotected",
                         actions=[VehicleAction(0.0, "drive", {"accel": 70})])
        outcome = simulate_vehicle(spec, builder)
        assert outcome.hpe_decisions == 0
        assert outcome.frames_blocked == 0
        assert outcome.mean_decision_latency_s == 0.0

    def test_protection_decides_attack_outcome(self, builder):
        attack = [VehicleAction(0.05, "attack", {"threat_id": "T01"})]
        protected = simulate_vehicle(make_spec(actions=attack), builder)
        unprotected = simulate_vehicle(
            make_spec(enforcement="unprotected", actions=attack), builder
        )
        assert protected.attacks_attempted == unprotected.attacks_attempted == 1
        assert protected.attacks_mitigated == 1
        assert protected.healthy
        assert unprotected.attacks_mitigated == 0
        assert not unprotected.healthy

    def test_policy_update_action_bumps_enforced_version(self, builder):
        spec = make_spec(actions=[VehicleAction(0.05, "policy_update", {})])
        outcome = simulate_vehicle(spec, builder)
        # The OTA path re-syncs every engine after the version bump.
        assert outcome.policy_pushes >= 0
        assert outcome.healthy

    def test_unknown_action_kind_raises(self, builder):
        spec = make_spec(actions=[VehicleAction(0.0, "teleport", {})])
        with pytest.raises(ValueError, match="unknown fleet action"):
            simulate_vehicle(spec, builder)

    def test_same_spec_gives_identical_deterministic_outcome(self, builder):
        spec = make_spec(actions=[VehicleAction(0.05, "fuzz", {"frames": 40})])
        first = simulate_vehicle(spec, builder)
        second = simulate_vehicle(spec, builder)
        assert first.deterministic_tuple() == second.deterministic_tuple()


def record_handler_calls(monkeypatch, kinds=("drive",)):
    """Replace the handlers of *kinds* with recorders of (tag, car clock)."""
    calls = []

    def recorder(car, action, vehicle):
        calls.append((action.param("tag"), car.scheduler.now))
        advance = action.param("advance")
        if advance:
            car.run(advance)

    for kind in kinds:
        monkeypatch.setitem(runner._ACTION_HANDLERS, kind, recorder)
    return calls


class TestScriptReplay:
    def test_actions_run_in_time_order_on_the_cars_clock(self, builder, monkeypatch):
        calls = record_handler_calls(monkeypatch)
        actions = [
            VehicleAction(0.15, "drive", {"tag": "c"}),
            VehicleAction(0.05, "drive", {"tag": "a"}),
            VehicleAction(0.1, "drive", {"tag": "b"}),
        ]
        simulate_vehicle(make_spec(actions=actions), builder)
        assert [tag for tag, _ in calls] == ["a", "b", "c"]
        assert [now for _, now in calls] == [
            pytest.approx(0.05), pytest.approx(0.1), pytest.approx(0.15)
        ]

    def test_same_time_actions_keep_script_order(self, builder, monkeypatch):
        calls = record_handler_calls(monkeypatch, kinds=("drive", "park_and_arm"))
        actions = [
            VehicleAction(0.1, "park_and_arm", {"tag": "first"}),
            VehicleAction(0.05, "drive", {"tag": "earlier"}),
            VehicleAction(0.1, "drive", {"tag": "second"}),
            VehicleAction(0.1, "park_and_arm", {"tag": "third"}),
        ]
        simulate_vehicle(make_spec(actions=actions), builder)
        assert [tag for tag, _ in calls] == ["earlier", "first", "second", "third"]

    def test_an_action_at_the_duration_runs_and_later_ones_do_not(self, builder, monkeypatch):
        calls = record_handler_calls(monkeypatch, kinds=("drive", "teleport"))
        actions = [
            VehicleAction(0.25, "teleport", {"tag": "late"}),
            VehicleAction(0.2, "drive", {"tag": "at-end"}),
        ]
        outcome = simulate_vehicle(make_spec(actions=actions, duration_s=0.2), builder)
        assert [tag for tag, _ in calls] == ["at-end"]
        assert outcome.simulated_seconds == pytest.approx(0.2)

    def test_the_car_clock_only_moves_forward(self, builder, monkeypatch):
        # A handler that advances the car (as attack primitives do)
        # leaves the bus ahead of the next action's time; the next
        # action then runs at the bus's time, never rewinding it.
        calls = record_handler_calls(monkeypatch)
        actions = [
            VehicleAction(0.05, "drive", {"tag": "advances", "advance": 0.1}),
            VehicleAction(0.1, "drive", {"tag": "behind"}),
        ]
        simulate_vehicle(make_spec(actions=actions), builder)
        assert calls[1] == ("behind", pytest.approx(0.15))

    def test_fuzz_campaigns_share_one_continuing_stream(self, builder, monkeypatch):
        seen = []

        class RecordingFuzz(runner.FuzzingAttack):
            def __init__(self, car, rng):
                seen.append((rng, rng.getstate()))
                super().__init__(car, rng=rng)

        monkeypatch.setattr(runner, "FuzzingAttack", RecordingFuzz)
        fuzz = {"frames": 20}
        spec = make_spec(
            actions=[VehicleAction(0.05, "fuzz", fuzz), VehicleAction(0.1, "fuzz", fuzz)],
            seed=23,
        )
        outcome = simulate_vehicle(spec, builder)
        assert outcome.attacks_attempted == 2
        (first, first_state), (second, second_state) = seen
        assert first is second
        assert first_state == random.Random(derive_seed(23, "fuzz")).getstate()
        assert second_state != first_state


#: One parameter set per attack kind that attaches a rogue node.
ATTACK_ACTIONS = {
    "attack": {"threat_id": "T01"},
    "targeted_dos": {"repetitions": 2},
    "flood": {"frames": 20, "window_s": 0.05, "flood_id": 0},
    "replay": {"messages": ["DOOR_UNLOCK_CMD"]},
    "fuzz": {"frames": 30},
}


class TestRepeatedAttacks:
    """A script may repeat any attack; the second rogue node gets a free name."""

    @pytest.mark.parametrize("kind", sorted(ATTACK_ACTIONS))
    @pytest.mark.parametrize("enforcement", ["hpe+selinux", "unprotected"])
    def test_each_attack_kind_twice_matches_pooled_and_fresh(self, builder, kind, enforcement):
        params = ATTACK_ACTIONS[kind]
        spec = make_spec(
            enforcement=enforcement,
            actions=[VehicleAction(0.05, kind, params), VehicleAction(0.15, kind, params)],
            duration_s=0.3,
        )
        fresh = simulate_vehicle(spec, builder)
        assert fresh.attacks_attempted == 2
        pool = CarPool(builder)
        # The second acquisition is a reset car: both rogue nodes of the
        # first run must be gone for it to match a fresh build.
        for _ in range(2):
            pooled = simulate_vehicle(spec, pool=pool)
            assert pooled.deterministic_tuple() == fresh.deterministic_tuple()
        assert pool.reuses == 1


class TestFleetSession:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="baseline_cruise", vehicles=1, workers=0)

    def test_run_accepts_scenario_name_or_explicit_specs(self):
        by_name = run_fleet("baseline_cruise", SMALL_FLEET, seed=3)
        specs = get_scenario("baseline_cruise").vehicle_specs(SMALL_FLEET, 3)
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=SMALL_FLEET)
        with FleetSession(config) as session:
            by_object = session.run_specs(specs, "baseline_cruise")
        assert by_name.fingerprint() == by_object.fingerprint()
        assert by_name.vehicles == SMALL_FLEET

    def test_parallel_aggregates_are_bit_identical_to_serial(self):
        serial = run_fleet("mixed_ev_dos", SMALL_FLEET, seed=42, workers=1)
        parallel = run_fleet("mixed_ev_dos", SMALL_FLEET, seed=42, workers=4, chunk_size=2)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.frames_transmitted == parallel.frames_transmitted
        assert serial.frames_blocked == parallel.frames_blocked
        assert serial.latency_p99_s == parallel.latency_p99_s
        assert serial.enforcement_mix == parallel.enforcement_mix

    def test_matrix_runs_with_globally_unique_vehicle_ids(self):
        configs = [
            ExperimentConfig(scenario=name, vehicles=4, seed=1, first_vehicle_id=4 * i)
            for i, name in enumerate(("baseline_cruise", "fuzz_probe"))
        ]
        with FleetSession(configs[0]) as session:
            results = {config.scenario: result for config, result in session.run_matrix(configs)}
        assert set(results) == {"baseline_cruise", "fuzz_probe"}
        assert all(result.vehicles == 4 for result in results.values())

    def test_wall_clock_throughput_is_reported(self):
        result = run_fleet("baseline_cruise", SMALL_FLEET, seed=3)
        assert result.wall_seconds > 0
        assert result.frames_per_second > 0
        assert result.vehicles_per_second > 0
