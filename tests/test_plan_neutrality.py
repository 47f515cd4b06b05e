"""The execution plan never changes what a run simulates.

:data:`repro.api.config.PLAN_FIELDS` names the config fields that
decide *how* a fleet run executes; :meth:`ExperimentConfig.config_hash`
leaves them out, so the experiment service serves every plan of one
experiment from one simulation.  That is only sound if each plan field
is fingerprint-neutral, which this module proves registry-wide:

* every registered scenario under every listed value of every plan
  field, one field at a time, each in a fresh session, against the
  default plan's fingerprint;
* hypothesis-drawn combined plans (plus each preset's plan) through one
  warm session's :meth:`~repro.api.session.FleetSession.run_matrix`,
  whose consecutive plans of one experiment also replay one recorded
  spec stream.

Fingerprints cover every deterministic per-vehicle outcome field, so
fleet aggregates (frames, blocks, mitigations, latency percentiles)
are covered too.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import ExperimentConfig, FleetSession
from repro.api.config import BACKENDS, PLAN_FIELDS, PRESETS
from repro.can.trace import TraceLevel
from repro.fleet.runner import DEFAULT_FLEET_INBOX_LIMIT
from repro.fleet.scenarios import registered_scenarios
from repro.fleet.transfer import SPEC_TRANSFER_MODES

SCENARIO_NAMES = [scenario.name for scenario in registered_scenarios()]
VEHICLES = 12
SEED = 2018

#: Every value each plan field is exercised under.
PLAN_VALUES = {
    "trace_level": tuple(TraceLevel),
    "inbox_limit": (None, 1, DEFAULT_FLEET_INBOX_LIMIT),
    "workers": (1, 2, 4),
    "chunk_size": (None, 1, 5),
    "spec_transfer": SPEC_TRANSFER_MODES,
    "reuse_cars": (True, False),
    "compile_tables": (True, False),
    "retry": (0, 2),
    "chunk_timeout_s": (None, 60.0),
    "degrade": (True, False),
    "backend": BACKENDS,
}

PLANS = st.fixed_dictionaries(
    {name: st.sampled_from(values) for name, values in PLAN_VALUES.items()}
)


def experiment(scenario: str, **plan) -> ExperimentConfig:
    return ExperimentConfig(scenario=scenario, vehicles=VEHICLES, seed=SEED, **plan)


@pytest.fixture(scope="module")
def reference() -> dict[str, str]:
    """Each scenario's fingerprint under the default plan."""
    fingerprints = {}
    for name in SCENARIO_NAMES:
        with FleetSession(experiment(name)) as session:
            fingerprints[name] = session.run().fingerprint()
    return fingerprints


@pytest.fixture(scope="module")
def warm_session():
    with FleetSession(experiment(SCENARIO_NAMES[0])) as session:
        yield session


def test_values_cover_exactly_the_plan_fields():
    assert tuple(PLAN_VALUES) == PLAN_FIELDS


@pytest.mark.parametrize("field", PLAN_FIELDS)
def test_each_plan_field_leaves_the_hash_unchanged(field):
    base = experiment("mixed_ev_dos")
    for value in PLAN_VALUES[field]:
        assert base.with_overrides(**{field: value}).config_hash() == base.config_hash()


@pytest.mark.parametrize("field", PLAN_FIELDS)
def test_each_plan_field_is_fingerprint_neutral(field, reference):
    for name in SCENARIO_NAMES:
        for value in PLAN_VALUES[field]:
            with FleetSession(experiment(name, **{field: value})) as session:
                fingerprint = session.run().fingerprint()
            assert fingerprint == reference[name], (name, field, value)


@settings(max_examples=6, deadline=None)
@given(plans=st.lists(PLANS, min_size=1, max_size=3))
@example(plans=[PRESETS[name] for name in sorted(PRESETS)])
@example(plans=[
    {"workers": 4, "spec_transfer": transfer, "backend": backend}
    for transfer in SPEC_TRANSFER_MODES
    for backend in BACKENDS
])
def test_combined_plans_through_one_warm_session(plans, reference, warm_session):
    matrix = [experiment(name, **plan) for name in SCENARIO_NAMES for plan in plans]
    for config, result in warm_session.run_matrix(matrix):
        assert result.fingerprint() == reference[config.scenario], config
