"""Tests for the fleet scenario registry and spec materialisation."""

import random

import pytest

from repro.fleet.scenarios import (
    FleetScenario,
    VehicleAction,
    VehicleSpec,
    get_scenario,
    register_scenario,
    registered_scenarios,
    temporary_scenario,
    unregister_scenario,
)

BUILTIN_NAMES = {
    "baseline_cruise",
    "fleet_replay_storm",
    "staggered_ota_rollout",
    "mixed_ev_dos",
    "fuzz_probe",
}


def _noop_script(index: int, rng: random.Random):
    return (VehicleAction(0.0, "drive", {"accel": rng.randint(30, 90)}),)


def make_scenario(name: str = "custom_test_scenario") -> FleetScenario:
    return FleetScenario(
        name=name,
        description="test scenario",
        duration_s=0.1,
        mix=(("hpe+selinux", 0.5), ("unprotected", 0.5)),
        script=_noop_script,
    )


class TestRegistry:
    def test_builtin_workloads_are_registered(self):
        names = {scenario.name for scenario in registered_scenarios()}
        assert BUILTIN_NAMES <= names

    def test_register_get_unregister_round_trip(self):
        scenario = make_scenario()
        register_scenario(scenario)
        try:
            assert get_scenario(scenario.name) is scenario
            assert scenario.name in {s.name for s in registered_scenarios()}
        finally:
            removed = unregister_scenario(scenario.name)
        assert removed is scenario
        with pytest.raises(KeyError):
            get_scenario(scenario.name)

    def test_duplicate_registration_rejected_unless_replacing(self):
        scenario = make_scenario()
        register_scenario(scenario)
        try:
            with pytest.raises(ValueError):
                register_scenario(make_scenario())
            replacement = make_scenario()
            register_scenario(replacement, replace_existing=True)
            assert get_scenario(scenario.name) is replacement
        finally:
            unregister_scenario(scenario.name)

    def test_unknown_scenario_error_names_known_ones(self):
        with pytest.raises(KeyError, match="baseline_cruise"):
            get_scenario("no_such_workload")


class TestDecoratorRegistration:
    def test_decorator_builds_and_registers_the_scenario(self):
        @register_scenario(
            name="decorated_test_scenario",
            duration_s=0.1,
            mix=(("hpe+selinux", 1.0),),
            parameters={"accel": 55},
        )
        def decorated_script(index, rng):
            """Decorated steady driving."""
            return (VehicleAction(0.0, "drive", {"accel": 55}),)

        try:
            assert isinstance(decorated_script, FleetScenario)
            assert get_scenario("decorated_test_scenario") is decorated_script
            # The docstring's first line became the description.
            assert decorated_script.description == "Decorated steady driving."
            assert dict(decorated_script.parameters) == {"accel": 55}
            specs = decorated_script.vehicle_specs(3, seed=1)
            assert all(spec.actions[0].param("accel") == 55 for spec in specs)
        finally:
            unregister_scenario("decorated_test_scenario")

    def test_explicit_description_beats_the_docstring(self):
        @register_scenario(
            name="described_test_scenario",
            description="explicit wins",
            duration_s=0.1,
            mix=(("unprotected", 1.0),),
        )
        def scripted(index, rng):
            """Docstring loses."""
            return ()

        try:
            assert scripted.description == "explicit wins"
        finally:
            unregister_scenario("described_test_scenario")

    def test_decorator_form_requires_the_scenario_fields(self):
        with pytest.raises(TypeError, match="name=, duration_s= and mix="):
            register_scenario(name="incomplete")

    def test_positional_argument_must_be_a_scenario(self):
        with pytest.raises(TypeError, match="FleetScenario"):
            register_scenario(_noop_script)


class TestParameterAwareScripts:
    def test_three_argument_script_receives_parameter_overrides(self):
        @register_scenario(
            name="param_aware_test",
            duration_s=0.1,
            mix=(("hpe+selinux", 1.0),),
            parameters={"accel": 40},
        )
        def scripted(index, rng, params):
            """Parameter-aware steady driving."""
            return (VehicleAction(0.0, "drive", {"accel": params["accel"]}),)

        try:
            base = scripted.vehicle_specs(2, seed=1)
            assert all(spec.actions[0].param("accel") == 40 for spec in base)
            tuned = scripted.with_parameters(accel=90).vehicle_specs(2, seed=1)
            assert all(spec.actions[0].param("accel") == 90 for spec in tuned)
        finally:
            unregister_scenario("param_aware_test")

    def test_two_argument_scripts_treat_parameters_as_metadata(self):
        scenario = get_scenario("baseline_cruise")
        overridden = scenario.with_parameters(accel_range=(1, 2))
        assert overridden.vehicle_specs(3, seed=1) == scenario.vehicle_specs(3, seed=1)


class TestTemporaryScenario:
    def test_registers_for_the_block_only(self):
        scenario = make_scenario("temp_test_scenario")
        with temporary_scenario(scenario) as active:
            assert active is scenario
            assert get_scenario("temp_test_scenario") is scenario
        with pytest.raises(KeyError):
            get_scenario("temp_test_scenario")

    def test_shadows_and_restores_an_existing_scenario(self):
        builtin = get_scenario("baseline_cruise")
        shadow = make_scenario("baseline_cruise")
        with temporary_scenario(shadow):
            assert get_scenario("baseline_cruise") is shadow
        assert get_scenario("baseline_cruise") is builtin

    def test_restores_even_when_the_block_raises(self):
        scenario = make_scenario("temp_raises_scenario")
        with pytest.raises(RuntimeError):
            with temporary_scenario(scenario):
                raise RuntimeError("boom")
        with pytest.raises(KeyError):
            get_scenario("temp_raises_scenario")


class TestScenarioValidation:
    def test_rejects_unknown_enforcement_label(self):
        with pytest.raises(ValueError, match="enforcement label"):
            FleetScenario(
                name="bad",
                description="",
                duration_s=0.1,
                mix=(("tinfoil", 1.0),),
                script=_noop_script,
            )

    def test_rejects_nonpositive_duration_and_weights(self):
        with pytest.raises(ValueError):
            FleetScenario(
                name="bad", description="", duration_s=0.0,
                mix=(("unprotected", 1.0),), script=_noop_script,
            )
        with pytest.raises(ValueError):
            FleetScenario(
                name="bad", description="", duration_s=0.1,
                mix=(("unprotected", 0.0),), script=_noop_script,
            )

    def test_with_parameters_records_overrides(self):
        scenario = make_scenario().with_parameters(frames=99)
        assert dict(scenario.parameters)["frames"] == 99


class TestSpecMaterialisation:
    def test_same_seed_materialises_identical_specs(self):
        scenario = get_scenario("mixed_ev_dos")
        assert scenario.vehicle_specs(20, seed=5) == scenario.vehicle_specs(20, seed=5)

    def test_different_seeds_differ(self):
        scenario = get_scenario("mixed_ev_dos")
        assert scenario.vehicle_specs(20, seed=5) != scenario.vehicle_specs(20, seed=6)

    def test_specs_cover_the_declared_mix(self):
        scenario = get_scenario("mixed_ev_dos")
        specs = scenario.vehicle_specs(200, seed=1)
        labels = {spec.enforcement for spec in specs}
        assert labels == {label for label, _ in scenario.mix}

    def test_batched_materialisation_composes_with_combined(self):
        scenario = get_scenario("mixed_ev_dos")
        combined = scenario.vehicle_specs(8, seed=4)
        batched = scenario.vehicle_specs(4, seed=4) + scenario.vehicle_specs(
            4, seed=4, first_vehicle_id=4
        )
        assert batched == combined

    def test_vehicle_ids_are_sequential_from_first_id(self):
        specs = get_scenario("baseline_cruise").vehicle_specs(5, seed=1, first_vehicle_id=100)
        assert [spec.vehicle_id for spec in specs] == [100, 101, 102, 103, 104]

    def test_actions_are_time_sorted(self):
        for spec in get_scenario("staggered_ota_rollout").vehicle_specs(10, seed=3):
            times = [action.time for action in spec.actions]
            assert times == sorted(times)

    def test_fleet_size_must_be_positive(self):
        with pytest.raises(ValueError):
            get_scenario("baseline_cruise").vehicle_specs(0, seed=1)


class TestSerialisationRoundTrip:
    def test_action_round_trips_through_dict(self):
        action = VehicleAction(0.25, "flood", {"frames": 50, "window_s": 0.1})
        rebuilt = VehicleAction.from_dict(action.to_dict())
        assert rebuilt == action
        assert rebuilt.param("frames") == 50
        assert rebuilt.param("missing", "fallback") == "fallback"

    def test_spec_round_trips_through_dict(self):
        for spec in get_scenario("fleet_replay_storm").vehicle_specs(5, seed=9):
            assert VehicleSpec.from_dict(spec.to_dict()) == spec

    def test_spec_round_trips_through_actual_json(self):
        import json

        for spec in get_scenario("fleet_replay_storm").vehicle_specs(5, seed=9):
            rebuilt = VehicleSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec
            assert all(hash(action) is not None for action in rebuilt.actions)

    def test_action_params_are_canonically_sorted(self):
        a = VehicleAction(0.1, "drive", {"b": 2, "a": 1})
        b = VehicleAction(0.1, "drive", {"a": 1, "b": 2})
        assert a == b
        assert a.params == (("a", 1), ("b", 2))

    def test_action_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown VehicleAction key\(s\) \['knid'\]"):
            VehicleAction.from_dict({"time": 0.1, "kind": "drive", "knid": "typo"})

    def test_action_rejects_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required VehicleAction"):
            VehicleAction.from_dict({"time": 0.1})

    def test_spec_rejects_unknown_keys(self):
        data = get_scenario("baseline_cruise").vehicle_specs(1, seed=1)[0].to_dict()
        data["enforcment"] = data.pop("enforcement")
        with pytest.raises(ValueError, match="enforcment"):
            VehicleSpec.from_dict(data)

    def test_spec_rejects_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required VehicleSpec"):
            VehicleSpec.from_dict({"vehicle_id": 1, "scenario": "x"})


_BAD_TIMES = [-0.1, -1e-12, float("nan"), float("inf"), float("-inf")]


class TestSpecTimes:
    """Action times and durations must be finite and non-negative."""

    @staticmethod
    def _spec_dict(duration_s=0.5, actions=()):
        return {
            "vehicle_id": 0,
            "scenario": "unit-test",
            "enforcement": "hpe+selinux",
            "seed": 1,
            "duration_s": duration_s,
            "actions": list(actions),
        }

    @pytest.mark.parametrize("bad", _BAD_TIMES)
    def test_action_time_rejected_by_the_constructor(self, bad):
        with pytest.raises(ValueError, match="VehicleAction.time must be finite"):
            VehicleAction(bad, "drive")

    @pytest.mark.parametrize("bad", _BAD_TIMES)
    def test_action_time_rejected_by_from_dict(self, bad):
        with pytest.raises(ValueError, match="VehicleAction.time must be finite"):
            VehicleAction.from_dict({"time": bad, "kind": "drive"})

    @pytest.mark.parametrize("bad", _BAD_TIMES)
    def test_duration_rejected_by_the_constructor(self, bad):
        with pytest.raises(ValueError, match="VehicleSpec.duration_s must be finite"):
            VehicleSpec(0, "unit-test", "hpe+selinux", 1, bad)

    @pytest.mark.parametrize("bad", _BAD_TIMES)
    def test_duration_rejected_by_from_dict(self, bad):
        with pytest.raises(ValueError, match="VehicleSpec.duration_s must be finite"):
            VehicleSpec.from_dict(self._spec_dict(duration_s=bad))

    @pytest.mark.parametrize("bad", _BAD_TIMES)
    def test_nested_action_time_rejected_by_spec_from_dict(self, bad):
        actions = [{"time": bad, "kind": "drive"}]
        with pytest.raises(ValueError, match="VehicleAction.time must be finite"):
            VehicleSpec.from_dict(self._spec_dict(actions=actions))

    def test_zero_is_a_valid_time_and_duration(self):
        spec = VehicleSpec(0, "unit-test", "hpe+selinux", 1, 0, (VehicleAction(0, "drive"),))
        assert spec.duration_s == 0.0
        assert spec.actions[0].time == 0.0
        assert VehicleSpec.from_dict(spec.to_dict()) == spec
