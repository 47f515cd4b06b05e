"""Entry points and checks for the ``backend="auto"`` per-chunk outcome memo.

The memo itself lives in :func:`repro.fleet.runner._simulate_specs`,
the one chunk function every execution path calls.  This module keeps
the names built around it: chunk entry points with the memo on, the
registry-wide parity check and the per-scenario eligibility report.
"""

from __future__ import annotations

import hashlib
import importlib.util
from typing import Iterable

from repro.fleet import runner
from repro.fleet.results import VehicleOutcome
from repro.fleet.runner import SEED_INDEPENDENT_KINDS
from repro.fleet.scenarios import FleetScenario, VehicleSpec, registered_scenarios
from repro.fleet.transfer import SpecBlock


class BackendParityError(RuntimeError):
    """Memo-on outcomes diverged from memo-off outcomes."""


def numpy_available() -> bool:
    """Whether numpy is importable.

    Nothing in ``repro`` uses numpy; this is kept only for the
    benchmark's setup hook, which checks it before :func:`parity_gate`.
    """
    return importlib.util.find_spec("numpy") is not None


def scenario_backend_eligibility(
    scenario: FleetScenario, sample_vehicles: int = 8, seed: int = 0
) -> dict:
    """Predict what ``backend="auto"`` does for one scenario.

    Samples a few specs (no vehicle is simulated) and reports whether
    all their action kinds are seed-independent, naming the first
    seed-dependent kind otherwise.
    """
    kinds = {
        action.kind
        for spec in scenario.iter_vehicle_specs(sample_vehicles, seed)
        for action in spec.actions
    }
    blocked = sorted(kinds - SEED_INDEPENDENT_KINDS)
    reason = None
    if blocked:
        reason = (
            f"action kind {blocked[0]!r} is seed-dependent, so each such "
            "vehicle runs its own kernel"
        )
    return {
        "memoisable": not blocked,
        "reason": reason,
        "action_kinds": sorted(kinds),
        "sampled_vehicles": sample_vehicles,
    }


def simulate_specs_vectorised(specs: Iterable[VehicleSpec], **options) -> list[VehicleOutcome]:
    """Simulate one chunk of specs with the memo on.

    *options* are :func:`repro.fleet.runner._simulate_specs` keywords.
    """
    return runner._simulate_specs(list(specs), memo=True, **options)


def simulate_block_vectorised(block: SpecBlock, **options) -> list[VehicleOutcome]:
    """Simulate one columnar :class:`SpecBlock` chunk with the memo on."""
    return runner._simulate_specs(block.decode(), memo=True, **options)


def _outcome_digest(outcomes: Iterable[VehicleOutcome]) -> str:
    """The fleet fingerprint's fold, over outcomes in vehicle-id order."""
    digest = hashlib.sha256()
    for outcome in sorted(outcomes, key=lambda o: o.vehicle_id):
        digest.update(repr(outcome.deterministic_tuple()).encode())
    return digest.hexdigest()


def parity_gate(vehicles: int = 6, seed: int = 2018) -> None:
    """Raise :class:`BackendParityError` unless memo on equals memo off.

    Simulates *vehicles* of every registered scenario at *seed* both
    ways and compares outcome digests.  Nothing is cached.
    """
    for scenario in registered_scenarios():
        specs = scenario.vehicle_specs(vehicles, seed)
        memo_off = runner._simulate_specs(specs, memo=False)
        memo_on = runner._simulate_specs(specs, memo=True)
        if _outcome_digest(memo_off) != _outcome_digest(memo_on):
            raise BackendParityError(
                f"scenario {scenario.name!r}: memoised outcomes diverge from "
                f"the object kernel over {vehicles} vehicles at seed {seed}"
            )
