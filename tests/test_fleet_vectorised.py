"""Tests for the per-chunk outcome memo behind ``backend="auto"``.

The memo's contract is outcome-exactness: every deterministic field of
every outcome equals what the memo-off path (one kernel run per
vehicle) produces for the same spec.  These tests assert it on every
registered scenario through the spec-list and columnar SpecBlock entry
points and on hand-built and hypothesis-generated chunks; end to end
through sessions, ``backend`` is one field of the plan property in
``test_plan_neutrality.py``.  The declared seed-independence of each
action kind -- what makes the memo sound -- is checked kind by kind
under two seeds.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ConfigError, ExperimentConfig, FleetSession
from repro.fleet import runner, vectorised
from repro.fleet.runner import SEED_INDEPENDENT_KINDS, _simulate_specs
from repro.fleet.scenarios import (
    ENFORCEMENT_LABELS,
    VehicleAction,
    VehicleSpec,
    get_scenario,
    registered_scenarios,
)
from repro.fleet.transfer import SpecBlock
from repro.fleet.vectorised import (
    BackendParityError,
    parity_gate,
    scenario_backend_eligibility,
    simulate_block_vectorised,
    simulate_specs_vectorised,
)
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry

SCENARIO_NAMES = [scenario.name for scenario in registered_scenarios()]


def _tuples(outcomes):
    return [outcome.deterministic_tuple() for outcome in outcomes]


def _memo_off_tuples(specs):
    return _tuples(_simulate_specs(specs, memo=False))


def _block(specs):
    return SpecBlock.from_bytes(SpecBlock.encode(specs).to_bytes())


def _spec(vehicle_id, actions, enforcement="hpe+selinux", duration_s=0.1, seed=7):
    return VehicleSpec(
        vehicle_id=vehicle_id,
        scenario="hand-built",
        enforcement=enforcement,
        seed=seed,
        duration_s=duration_s,
        actions=tuple(actions),
    )


@pytest.fixture
def kernel_runs(monkeypatch):
    """Count real kernel runs the memo makes (through the module global)."""
    calls = []
    original = runner.simulate_vehicle

    def counting(spec, *args, **kwargs):
        calls.append(spec.vehicle_id)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(runner, "simulate_vehicle", counting)
    return calls


#: One runnable example per dispatched action kind.  A kind added to
#: the runner's dispatch table without an example here fails the test.
EXAMPLE_ACTIONS = {
    "drive": {"accel": 60},
    "park_and_arm": {},
    "attack": {"threat_id": "T01"},
    "targeted_dos": {"target": "EV-ECU", "repetitions": 1},
    "flood": {"frames": 10, "window_s": 0.05},
    "replay": {"messages": ("DOOR_UNLOCK_CMD",), "capture_duration_s": 0.05},
    "fuzz": {"frames": 60},
    "policy_update": {"description": "seed sweep"},
}

#: Kinds known to draw from the per-vehicle seeded RNG streams.
SEED_DEPENDENT_KINDS = frozenset({"fuzz"})


class TestSeedIndependenceDeclaration:
    """Every kind the runner dispatches is declared one way or the other."""

    def test_every_dispatched_kind_is_classified(self):
        dispatched = set(runner._ACTION_HANDLERS)
        unclassified = dispatched - SEED_INDEPENDENT_KINDS - SEED_DEPENDENT_KINDS
        assert not unclassified, (
            f"action kinds {sorted(unclassified)} are neither declared "
            "seed-independent nor listed as seed-dependent"
        )
        assert not SEED_INDEPENDENT_KINDS & SEED_DEPENDENT_KINDS
        assert SEED_INDEPENDENT_KINDS <= dispatched
        assert dispatched <= set(EXAMPLE_ACTIONS)

    @pytest.mark.parametrize("kind", sorted(runner._ACTION_HANDLERS))
    def test_kind_behaves_as_declared_under_two_seeds(self, kind):
        actions = [
            VehicleAction(0.0, "drive", {"accel": 50}),
            VehicleAction(0.05, kind, EXAMPLE_ACTIONS[kind]),
        ]
        differs = {}
        for enforcement in ENFORCEMENT_LABELS:
            rows = [
                runner.simulate_vehicle(
                    _spec(vehicle_id, actions, enforcement, duration_s=0.3, seed=seed)
                ).deterministic_tuple()[1:]
                for vehicle_id, seed in ((0, 11), (1, 90_001))
            ]
            differs[enforcement] = rows[0] != rows[1]
        if kind in SEED_INDEPENDENT_KINDS:
            assert not any(differs.values()), (kind, differs)
        else:
            # Some enforcement labels mask the randomness (e.g. every
            # fuzzed frame blocked either way); one label must show it.
            assert any(differs.values()), f"{kind} is listed seed-dependent but is not"


class TestEligibility:
    def test_every_registered_scenario_classifies(self):
        for name in SCENARIO_NAMES:
            report = scenario_backend_eligibility(get_scenario(name))
            assert (report["reason"] is None) == report["memoisable"], name
        assert scenario_backend_eligibility(get_scenario("baseline_cruise"))["memoisable"]

    def test_fuzz_scenario_names_the_kind(self):
        report = scenario_backend_eligibility(get_scenario("fuzz_probe"))
        assert report["memoisable"] is False
        assert "fuzz" in report["reason"]
        assert "fuzz" in report["action_kinds"]


class TestChunkParity:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_spec_list_path_is_outcome_exact(self, name):
        specs = get_scenario(name).vehicle_specs(10, seed=2018)
        assert _tuples(simulate_specs_vectorised(specs)) == _memo_off_tuples(specs)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_columnar_block_path_is_outcome_exact(self, name):
        specs = get_scenario(name).vehicle_specs(10, seed=2018)
        assert _tuples(simulate_block_vectorised(_block(specs))) == _memo_off_tuples(specs)

    def test_mixed_fuzz_and_drive_chunk(self, kernel_runs):
        # Fuzz vehicles run their own kernel in place; drive vehicles
        # share one run per accel value; order is the chunk's order.
        specs = []
        for i in range(9):
            if i % 3 == 2:
                actions = [VehicleAction(0.0, "fuzz", {"frames": 10})]
            else:
                actions = [VehicleAction(0.0, "drive", {"accel": 40 + 10 * (i % 2)})]
            specs.append(_spec(i, actions, seed=100 + i))
        expected = _memo_off_tuples(specs)
        kernel_runs.clear()
        assert _tuples(simulate_specs_vectorised(specs)) == expected
        assert kernel_runs == [0, 1, 2, 5, 8]
        assert _tuples(simulate_block_vectorised(_block(specs))) == expected

    def test_one_behaviour_with_distinct_seeds_shares_one_kernel_run(self, kernel_runs):
        actions = [VehicleAction(0.0, "drive", {"accel": 60})]
        specs = [_spec(i, actions, seed=i * 977 + 5) for i in range(6)]
        outcomes = simulate_specs_vectorised(specs)
        assert kernel_runs == [0]
        assert [o.vehicle_id for o in outcomes] == list(range(6))
        assert len({o.deterministic_tuple()[1:] for o in outcomes}) == 1
        assert all(o.wall_seconds == 0.0 and o.build_seconds == 0.0 for o in outcomes[1:])
        assert outcomes[0].wall_seconds > 0.0
        assert _tuples(outcomes) == _memo_off_tuples(specs)

    def test_escape_params_above_64_bits(self, kernel_runs):
        # Params above the codec's 64-bit columns ride the escape table;
        # equal ones share a run, different ones never merge.
        big = 2**80 + 17
        specs = [
            _spec(0, [VehicleAction(0.0, "drive", {"accel": 50, "band": big})]),
            _spec(1, [VehicleAction(0.0, "drive", {"accel": 50, "band": big})]),
            _spec(2, [VehicleAction(0.0, "drive", {"accel": 50, "band": big + 1})]),
            _spec(3, [VehicleAction(0.0, "drive", {"accel": 50})]),
        ]
        expected = _memo_off_tuples(specs)
        kernel_runs.clear()
        assert _tuples(simulate_block_vectorised(_block(specs))) == expected
        assert kernel_runs == [0, 2, 3]
        assert _tuples(simulate_specs_vectorised(specs)) == expected

    def test_int_valued_hand_built_specs_match_across_paths(self):
        # Int durations/times canonicalise to floats on construction, so
        # the spec-list and columnar paths agree on the behaviour key.
        specs = [
            _spec(i, [VehicleAction(0, "park_and_arm", {})], duration_s=1)
            for i in range(4)
        ]
        expected = _memo_off_tuples(specs)
        assert _tuples(simulate_specs_vectorised(specs)) == expected
        assert _tuples(simulate_block_vectorised(_block(specs))) == expected

    @pytest.mark.parametrize(
        "options", [{"trace_level": "full"}, {"compile_tables": False}, {"reuse_cars": False}]
    )
    def test_memo_is_exact_at_every_trace_level_and_table_mode(self, options):
        specs = get_scenario("baseline_cruise").vehicle_specs(12, seed=2018)
        memo_off = _simulate_specs(specs, memo=False, **options)
        assert _tuples(_simulate_specs(specs, memo=True, **options)) == _tuples(memo_off)

    def test_telemetry_counts_keys_and_fallbacks(self):
        specs = [
            _spec(0, [VehicleAction(0.0, "drive", {"accel": 50})]),
            _spec(1, [VehicleAction(0.0, "drive", {"accel": 50})]),
            _spec(2, [VehicleAction(0.0, "fuzz", {"frames": 5})]),
        ]
        registry = MetricsRegistry()
        previous = obs_metrics.activate(registry)
        try:
            simulate_specs_vectorised(specs)
        finally:
            obs_metrics.activate(previous)
        assert registry.counter("backend.vectorised.chunks").value == 1
        assert registry.counter("backend.vectorised.vehicles").value == 2
        assert registry.counter("backend.vectorised.classes").value == 1
        assert registry.counter("backend.fallback_vehicles").value == 1


def _benign_action():
    drive = st.builds(
        lambda accel: VehicleAction(0.0, "drive", {"accel": accel}),
        st.integers(min_value=30, max_value=90),
    )
    park = st.just(VehicleAction(0.0, "park_and_arm", {}))
    update = st.just(VehicleAction(0.0, "policy_update", {"description": "sweep"}))
    return st.one_of(drive, park, update)


def _attack_action():
    # Attack primitives attach named rogue nodes, so the kernel allows
    # at most one per vehicle timeline -- the strategy mirrors that.
    attack = st.builds(
        lambda tid: VehicleAction(0.05, "attack", {"threat_id": tid}),
        st.sampled_from(["T01", "T05", "T13"]),
    )
    dos = st.builds(
        lambda target: VehicleAction(
            0.05, "targeted_dos", {"target": target, "repetitions": 1}
        ),
        st.sampled_from(["EV-ECU", "Engine", "EPS"]),
    )
    flood = st.builds(
        lambda frames: VehicleAction(0.05, "flood", {"frames": frames, "window_s": 0.05}),
        st.integers(min_value=5, max_value=15),
    )
    replay = st.just(
        VehicleAction(
            0.05, "replay", {"messages": ("DOOR_UNLOCK_CMD",), "capture_duration_s": 0.05}
        )
    )
    fuzz = st.builds(
        lambda frames: VehicleAction(0.05, "fuzz", {"frames": frames}),
        st.integers(min_value=5, max_value=15),
    )
    return st.one_of(attack, dos, flood, replay, fuzz)


def _spec_stream():
    def build(rows):
        return [
            _spec(
                i,
                [a for a in (benign, attacky) if a is not None],
                enforcement=enforcement,
                seed=seed,
            )
            for i, (benign, attacky, enforcement, seed) in enumerate(rows)
        ]

    row = st.tuples(
        st.none() | _benign_action(),
        st.none() | _attack_action(),
        st.sampled_from(ENFORCEMENT_LABELS),
        st.integers(min_value=0, max_value=2**32),
    )
    return st.builds(build, st.lists(row, min_size=1, max_size=4))


class TestHypothesisParity:
    @settings(max_examples=10, deadline=None)
    @given(specs=_spec_stream())
    def test_random_spec_streams_are_outcome_exact(self, specs):
        expected = _memo_off_tuples(specs)
        assert _tuples(simulate_specs_vectorised(specs)) == expected
        assert _tuples(simulate_block_vectorised(_block(specs))) == expected


class TestParityGate:
    def test_gate_passes(self):
        parity_gate()

    def test_gate_detects_a_divergent_memo(self, monkeypatch):
        original = runner._simulate_specs

        def corrupted(specs, **options):
            outcomes = original(specs, **options)
            if options.get("memo"):
                first = outcomes[0]
                outcomes[0] = dataclasses.replace(
                    first, frames_transmitted=first.frames_transmitted + 1
                )
            return outcomes

        monkeypatch.setattr(runner, "_simulate_specs", corrupted)
        with pytest.raises(BackendParityError, match="diverge"):
            parity_gate()

    def test_sessions_never_run_the_gate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a session ran the parity gate")

        monkeypatch.setattr(vectorised, "parity_gate", forbidden)
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=4, seed=2018, backend="auto"
        )
        with FleetSession(config) as session:
            assert session.run().vehicles == 4


class TestSessionBackends:
    def test_all_fallback_scenario_still_exact_under_auto(self, kernel_runs):
        fingerprints = {}
        for backend in ("object", "auto"):
            config = ExperimentConfig(
                scenario="fuzz_probe", vehicles=8, seed=2018, backend=backend
            )
            with FleetSession(config) as session:
                fingerprints[backend] = session.run().fingerprint()
        assert fingerprints["object"] == fingerprints["auto"]
        assert len(kernel_runs) == 16  # every fuzz vehicle ran its own kernel

    def test_memo_scope_is_one_chunk(self, kernel_runs):
        # baseline_cruise repeats behaviour keys across chunks; every
        # chunk pays for its own keys, so the run costs the sum of the
        # per-chunk distinct keys, never the fleet-wide count.
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=40, seed=2018, chunk_size=10, backend="auto"
        )
        with FleetSession(config) as session:
            specs = session.vehicle_specs()
            session.run()
        per_chunk = sum(
            len({(s.scenario, s.enforcement, s.duration_s, s.actions) for s in specs[i : i + 10]})
            for i in range(0, 40, 10)
        )
        assert len(kernel_runs) == per_chunk

    def test_session_telemetry_reports_memo_counters(self):
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=10, seed=2018, backend="auto"
        )
        with FleetSession(config, telemetry=True) as session:
            session.run()
            snapshot = session.metrics_snapshot()
        assert snapshot.counter("backend.vectorised.chunks") >= 1
        assert snapshot.counter("backend.vectorised.vehicles") == 10
        assert 1 <= snapshot.counter("backend.vectorised.classes") <= 10
        assert snapshot.counter("backend.fallback_vehicles") == 0

        mixed = ExperimentConfig(scenario="fuzz_probe", vehicles=6, seed=2018, backend="auto")
        with FleetSession(mixed, telemetry=True) as session:
            session.run()
            snapshot = session.metrics_snapshot()
        assert snapshot.counter("backend.fallback_vehicles") == 6


class TestConfigSurface:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            ExperimentConfig(scenario="baseline_cruise", vehicles=4, backend="gpu")

    def test_vectorised_is_a_config_error_naming_auto(self):
        with pytest.raises(ConfigError, match="'auto'"):
            ExperimentConfig(scenario="baseline_cruise", vehicles=4, backend="vectorised")

    def test_auto_is_legal_at_every_trace_level_and_table_mode(self):
        config = ExperimentConfig(
            scenario="baseline_cruise",
            vehicles=4,
            backend="auto",
            trace_level="full",
            compile_tables=False,
        )
        assert config.backend == "auto"

    def test_backend_round_trips_and_reaches_the_cli(self):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=4, backend="auto")
        as_dict = config.to_dict()
        assert as_dict["backend"] == "auto"
        assert ExperimentConfig.from_dict(as_dict) == config
        arguments = config.cli_arguments()
        assert arguments[arguments.index("--backend") + 1] == "auto"

    def test_throughput_preset_opts_into_auto(self):
        assert ExperimentConfig.throughput("baseline_cruise", 8).backend == "auto"
