"""Per-vehicle simulation and the worker-side fleet machinery.

:func:`simulate_vehicle` turns one fully explicit
:class:`~repro.fleet.scenarios.VehicleSpec` into a
:class:`~repro.fleet.results.VehicleOutcome`: the car is built (or
acquired warm) through the shared
:class:`~repro.casestudy.builder.CaseStudyBuilder`, the scripted actions
replay in time order on the car's own event scheduler, and every
outcome field is a pure function of the spec.  The module also hosts the
per-process worker plumbing (builder and car-pool caches, the chunk
function :func:`_simulate_specs` with its per-chunk outcome memo, the
picklable worker entry points) that
:class:`~repro.api.session.FleetSession` drives.

Orchestration lives in :mod:`repro.api`: build an
:class:`~repro.api.config.ExperimentConfig` and run it through a
:class:`~repro.api.session.FleetSession`.

Worker-count invariance: each vehicle's timeline is a pure function of
its spec (scripted actions run at scripted times, and the only
randomness is the vehicle's ``fuzz`` stream, seeded from ``spec.seed``
through :func:`~repro.core.seeding.derive_seed`), and aggregation folds
outcomes in vehicle-id order -- so a 4-worker run is bit-identical to a
1-worker run with the same seed, which the fleet benchmark asserts.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro.attacks.dos import BusFloodAttack, TargetedDisableAttack
from repro.attacks.fuzzing import FuzzingAttack
from repro.attacks.replay import ReplayAttack
from repro.attacks.scenarios import scenario_by_threat_id
from repro.can.trace import TraceLevel
from repro.casestudy.builder import CarPool, CaseStudyBuilder
from repro.core.enforcement import EnforcementConfig
from repro.core.seeding import derive_seed
from repro.core.updates import PolicyUpdateBundle, PolicyUpdateClient
from repro.fleet.resilience import FaultEvent, apply_worker_fault
from repro.fleet.results import VehicleOutcome
from repro.fleet.scenarios import VehicleAction, VehicleSpec
from repro.fleet.transfer import (
    OutcomeBlock,
    ShmHandle,
    SpecBlock,
    read_block,
    write_block,
)
from repro.obs import clock
from repro.obs import metrics as _obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import observe_phase, span
from repro.vehicle.car import ConnectedCar

#: Enforcement label -> configuration (``None`` = unprotected baseline).
CONFIG_BY_LABEL: dict[str, EnforcementConfig | None] = {
    "unprotected": None,
    "selinux-only": EnforcementConfig.software_only(),
    "hpe-only": EnforcementConfig.hardware_only(),
    "hpe+selinux": EnforcementConfig.full(),
}

#: Signing key for simulated staggered OTA policy rollouts.
_OTA_SIGNING_KEY = b"fleet-ota-rollout-key"

#: Per-node inbox retention used by the fleet hot path.  Generously
#: larger than any attack-primitive observation window (replay captures
#: ~0.1 s of traffic) while bounding retained frame *objects* per
#: vehicle.  (The compact per-delivery id log that backs
#: ``received_ids()`` still grows with the timeline -- 4-8 bytes per
#: delivered frame versus hundreds per retained frame object.)
DEFAULT_FLEET_INBOX_LIMIT = 512


def config_for_label(label: str, compile_tables: bool = True) -> EnforcementConfig | None:
    """Resolve an enforcement label from a vehicle spec.

    ``compile_tables=False`` selects the approved-list object decision
    path instead of the compiled bitmask fast path (benchmark use;
    decisions are bit-identical either way).
    """
    try:
        config = CONFIG_BY_LABEL[label]
    except KeyError:
        raise KeyError(
            f"unknown enforcement label {label!r}; known: {sorted(CONFIG_BY_LABEL)}"
        ) from None
    if config is not None and config.compile_tables != compile_tables:
        config = replace(config, compile_tables=compile_tables)
    return config


class _VehicleRun:
    """Running bookkeeping for one vehicle's timeline.

    Tallies attack outcomes and owns the vehicle's one ``fuzz`` RNG
    stream, created on first use and shared by every ``fuzz`` action of
    the script, so a second fuzz campaign continues the first one's draws.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.mitigated = 0
        self._fuzz_rng: random.Random | None = None

    def record(self, mitigated: bool) -> None:
        self.attempted += 1
        if mitigated:
            self.mitigated += 1

    def fuzz_rng(self) -> random.Random:
        if self._fuzz_rng is None:
            self._fuzz_rng = random.Random(derive_seed(self.seed, "fuzz"))
        return self._fuzz_rng


def _do_drive(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> None:
    car.sensors.set_pedals(accel=int(action.param("accel", 60)), brake=0)
    car.sensors.set_gear(1)
    car.door_locks.set_motion(True)
    car.sync_enforcement()


def _do_park_and_arm(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> None:
    car.park_and_arm()


def _do_attack(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> None:
    scenario = scenario_by_threat_id(str(action.param("threat_id")))
    outcome = scenario.execute(car)
    vehicle.record(outcome.mitigated)


def _do_targeted_dos(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> None:
    attack = TargetedDisableAttack(
        car,
        target=str(action.param("target", "EV-ECU")),
        attacker_name="FleetDosNode",
    )
    result = attack.execute(repetitions=int(action.param("repetitions", 3)))
    vehicle.record(not result.target_disabled)


def _do_flood(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> None:
    attack = BusFloodAttack(
        car, flood_id=int(action.param("flood_id", 0)), attacker_name="FleetFloodNode"
    )
    result = attack.execute(
        frames=int(action.param("frames", 50)),
        window_s=float(action.param("window_s", 0.1)),
    )
    # A rogue node always reaches the bus; the storm counts as weathered
    # when legitimate traffic kept the majority of bus slots.
    vehicle.record(result.legitimate_delivery_ratio >= 0.5)


def _do_replay(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> None:
    messages = action.param("messages", ())
    capture_ids = {car.catalog.id_of(str(name)) for name in messages} or None
    attack = ReplayAttack(car, capture_ids=capture_ids)
    # Generate one legitimate command while stationary for the rogue
    # node to sniff (remote unlock from the telematics unit), capture,
    # then replay the recording once the vehicle is in motion.
    if messages:
        car.telematics.send_raw(car.catalog.id_of(str(messages[0])), b"\x01")
    attack.capture(float(action.param("capture_duration_s", 0.1)))
    hazards_before = len(car.door_locks.hazard_events)
    healthy_before = all(car.health().values())
    car.sensors.set_pedals(accel=50, brake=0)
    car.door_locks.set_motion(True)
    car.sync_enforcement()
    attack.replay()
    hazardous = len(car.door_locks.hazard_events) > hazards_before
    degraded = healthy_before and not all(car.health().values())
    vehicle.record(not (hazardous or degraded))


def _do_fuzz(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> None:
    attack = FuzzingAttack(car, rng=vehicle.fuzz_rng())
    result = attack.execute(frames=int(action.param("frames", 100)))
    vehicle.record(not result.components_disabled)


def _do_policy_update(car: ConnectedCar, action: VehicleAction, vehicle: _VehicleRun) -> bool:
    """Apply a version-bumped policy through the signed OTA update path.

    Unprotected vehicles have no coordinator and skip the update (they
    are exactly the population an OTA rollout cannot reach).  Returns
    whether an update was applied.
    """
    coordinator = getattr(car, "enforcement_coordinator", None)
    if coordinator is None:
        return False
    successor = coordinator.policy.next_version(
        str(action.param("description", "fleet policy rollout"))
    )
    bundle = PolicyUpdateBundle.create(successor, _OTA_SIGNING_KEY)
    client = PolicyUpdateClient(coordinator, _OTA_SIGNING_KEY)
    client.apply(bundle, car)
    return True


#: Scripted action kind -> handler.  Every handler takes
#: ``(car, action, vehicle)``.
_ACTION_HANDLERS = {
    "drive": _do_drive,
    "park_and_arm": _do_park_and_arm,
    "attack": _do_attack,
    "targeted_dos": _do_targeted_dos,
    "flood": _do_flood,
    "replay": _do_replay,
    "fuzz": _do_fuzz,
    "policy_update": _do_policy_update,
}

#: Action kinds whose replay never draws from the vehicle's seeded RNG
#: stream.  A timeline made only of these is a pure function of its
#: behaviour key ``(scenario, enforcement, duration_s, actions)``, so
#: ``backend="auto"`` lets same-key vehicles in one chunk share one
#: simulation.  ``fuzz`` is left out on purpose: it draws its frames from
#: the vehicle's ``fuzz`` stream, seeded by ``spec.seed``.  A test runs
#: every kind in :data:`_ACTION_HANDLERS` under two seeds to keep this
#: set honest.
SEED_INDEPENDENT_KINDS = frozenset(
    {"drive", "park_and_arm", "attack", "targeted_dos", "flood", "replay", "policy_update"}
)


def simulate_vehicle(
    spec: VehicleSpec,
    builder: CaseStudyBuilder | None = None,
    trace_level: TraceLevel | str = TraceLevel.COUNTERS,
    inbox_limit: int | None = DEFAULT_FLEET_INBOX_LIMIT,
    pool: CarPool | None = None,
    compile_tables: bool = True,
) -> VehicleOutcome:
    """Simulate one vehicle's full timeline and report its outcome.

    The outcome's deterministic fields depend only on *spec*: the car is
    built fresh (or acquired pristine from *pool* -- a reset car's
    timeline is bit-identical to a fresh build's), the scripted actions
    replay at their scripted times (same-time actions in script order;
    actions after ``duration_s`` never run), and all randomness comes
    from the vehicle's ``fuzz`` stream, seeded by ``spec.seed``.
    ``trace_level`` selects the bus-trace retention -- every count that
    feeds the outcome comes from the trace's count tables, so outcomes
    are bit-identical across ``FULL``, ``RING`` and ``COUNTERS``.
    ``compile_tables`` selects the HPE decision path (bitmask fast path
    versus approved-list objects); decisions are identical either way.

    The outcome splits wall-clock into ``build_seconds`` (car
    construction or pool acquisition) and ``wall_seconds`` (pure
    simulation), so throughput metrics are not polluted by setup cost.
    """
    build_start = clock.wall()
    config = config_for_label(spec.enforcement, compile_tables=compile_tables)
    if pool is not None:
        car = pool.acquire(
            config,
            start_periodic_traffic=True,
            trace_level=trace_level,
            inbox_limit=inbox_limit,
        )
    else:
        if builder is None:
            builder = _process_builder()
        car = builder.build_car(
            config,
            start_periodic_traffic=True,
            trace_level=trace_level,
            inbox_limit=inbox_limit,
        )
    wall_start = clock.wall()
    build_seconds = wall_start - build_start
    vehicle = _VehicleRun(spec.seed)
    # sorted() is stable, so same-time actions keep their script order.
    for action in sorted(spec.actions, key=lambda action: action.time):
        if action.time > spec.duration_s:
            break
        # Attack primitives advance the car internally (``car.run(0.05)``
        # inside scenario bodies), so the bus may already be past the
        # action's time; only the forward direction is meaningful.
        delta = action.time - car.scheduler.now
        if delta > 0:
            car.run(delta)
        handler = _ACTION_HANDLERS.get(action.kind)
        if handler is None:
            raise ValueError(f"unknown fleet action kind {action.kind!r}")
        handler(car, action, vehicle)
    remaining = spec.duration_s - car.scheduler.now
    if remaining > 0:
        car.run(remaining)

    coordinator = getattr(car, "enforcement_coordinator", None)
    hpe_decisions = coordinator.total_hpe_decisions() if coordinator else 0
    policy_pushes = coordinator.policy_pushes if coordinator else 0
    hpe_latency = (
        sum(engine.total_latency_s for engine in coordinator.engines.values())
        if coordinator
        else 0.0
    )
    # Count *policy* blocks only: firmware acceptance filters discard
    # non-subscribed broadcasts on every car, so including them would
    # mask what enforcement itself contributed.  Served by the trace's
    # O(1) counters -- no record scan, valid at every retention level.
    policy_blocks = car.bus.trace.policy_block_count()
    wall_seconds = clock.wall() - wall_start
    # Telemetry rides on readings already taken: the per-vehicle phase
    # samples reuse build/wall timings and the trace's O(1) counters,
    # so the enabled path adds no clock reads to the simulation itself
    # and the disabled path is this single branch.
    registry = _obs_metrics.ACTIVE
    if registry.enabled:
        registry.inc("vehicles.simulated")
        observe_phase(registry, "simulate.vehicle", wall_seconds)
        observe_phase(registry, "simulate.build", build_seconds)
        car.bus.trace.export_metrics(registry)
        registry.inc("can.plans.built", car.bus.plans_built)
        registry.inc("can.plans.hit", car.bus.plans_hit)
    return VehicleOutcome(
        vehicle_id=spec.vehicle_id,
        scenario=spec.scenario,
        enforcement=spec.enforcement,
        simulated_seconds=car.scheduler.now,
        frames_transmitted=car.bus.statistics.frames_transmitted,
        frames_delivered=car.bus.statistics.frames_delivered,
        frames_blocked=policy_blocks,
        hpe_decisions=hpe_decisions,
        policy_pushes=policy_pushes,
        attacks_attempted=vehicle.attempted,
        attacks_mitigated=vehicle.mitigated,
        mean_decision_latency_s=(hpe_latency / hpe_decisions if hpe_decisions else 0.0),
        healthy=all(car.health().values()),
        wall_seconds=wall_seconds,
        build_seconds=build_seconds,
    )


# ---------------------------------------------------------------------------
# Worker pool plumbing
# ---------------------------------------------------------------------------

#: Per-process builder cache: the policy derivation runs once per worker,
#: not once per vehicle (the fleet hot path the decision cache also serves).
_PROCESS_BUILDER: CaseStudyBuilder | None = None

#: Per-process vehicle pool: one warm car per enforcement configuration,
#: reset between vehicles instead of rebuilt (see
#: :class:`repro.casestudy.builder.CarPool`).
_PROCESS_POOL: CarPool | None = None


def _process_builder() -> CaseStudyBuilder:
    global _PROCESS_BUILDER
    if _PROCESS_BUILDER is None:
        _PROCESS_BUILDER = CaseStudyBuilder()
    return _PROCESS_BUILDER


def _process_pool() -> CarPool:
    global _PROCESS_POOL
    if _PROCESS_POOL is None:
        _PROCESS_POOL = _process_builder().pool()
    return _PROCESS_POOL


def _init_worker(extra_paths: list[str]) -> None:
    """Pool initializer: make ``src`` importable under spawn and pre-derive."""
    for path in extra_paths:
        if path not in sys.path:
            sys.path.insert(0, path)
    _process_builder()


#: Per-process worker registry (telemetry-enabled chunks only): created
#: once, activated for the chunk's duration, drained into the snapshot
#: that rides back with the chunk's outcomes.
_WORKER_REGISTRY: MetricsRegistry | None = None

#: Pool size already reported by this worker: snapshots carry the
#: *growth* since the previous drain, so the parent-side gauge sum over
#: all chunks equals the live pooled-car total across workers.
_POOL_SIZE_REPORTED = 0


def _begin_chunk_telemetry(telemetry: bool) -> MetricsRegistry | None:
    """Activate (or quiesce) this worker's registry for one chunk."""
    global _WORKER_REGISTRY
    if not telemetry:
        # A disabled run on a warm pool must pay no-op costs even if a
        # previous telemetry-enabled run left the registry active.
        if _obs_metrics.ACTIVE.enabled:
            _obs_metrics.activate(_obs_metrics.NOOP_REGISTRY)
        return None
    if _WORKER_REGISTRY is None:
        _WORKER_REGISTRY = MetricsRegistry()
    _obs_metrics.activate(_WORKER_REGISTRY)
    return _WORKER_REGISTRY


def _drain_chunk_telemetry(registry: MetricsRegistry | None) -> dict | None:
    """Export per-chunk cache/pool state, then drain the registry.

    The evaluator's lifetime hit/miss counters are exported as deltas
    (:meth:`~repro.core.policy_engine.PolicyEvaluator.metrics_delta`),
    so merging every chunk snapshot reproduces exact process totals.
    Returns the snapshot as a plain dict -- the only telemetry payload
    that crosses the worker pipe.
    """
    global _POOL_SIZE_REPORTED
    if registry is None:
        return None
    for key, delta in _process_builder().evaluator.metrics_delta().items():
        if delta:
            registry.inc(f"policy.{key}", delta)
    if _PROCESS_POOL is not None:
        size = len(_PROCESS_POOL)
        if size != _POOL_SIZE_REPORTED:
            registry.add_gauge("pool.size", float(size - _POOL_SIZE_REPORTED))
            _POOL_SIZE_REPORTED = size
    snapshot = registry.drain().to_dict()
    _obs_metrics.activate(_obs_metrics.NOOP_REGISTRY)
    return snapshot


def _simulate_specs(
    specs: Sequence[VehicleSpec],
    trace_level: TraceLevel | str = TraceLevel.COUNTERS,
    inbox_limit: int | None = DEFAULT_FLEET_INBOX_LIMIT,
    reuse_cars: bool = True,
    compile_tables: bool = True,
    memo: bool = False,
    builder: CaseStudyBuilder | None = None,
    pool: CarPool | None = None,
) -> list[VehicleOutcome]:
    """Simulate one chunk of specs, in order -- every execution path's core.

    With *memo*, a vehicle whose actions are all in
    :data:`SEED_INDEPENDENT_KINDS` shares one simulation with every
    earlier vehicle of the chunk that has the same behaviour key
    ``(scenario, enforcement, duration_s, actions)``.  A hit is the
    cached outcome re-stamped with its own ``vehicle_id`` and zeroed
    ``wall_seconds``/``build_seconds`` (neither is fingerprinted; the
    first vehicle keeps the measured compute).  Other vehicles, and
    every vehicle without *memo*, run :func:`simulate_vehicle`.  The
    memo lives for this call only, so no outcome crosses chunks or runs.
    """
    with span("simulate"):
        if builder is None:
            builder = _process_builder()
        if pool is None and reuse_cars:
            pool = _process_pool()

        def run(spec: VehicleSpec) -> VehicleOutcome:
            # Looked up as a module global on every call, so wrappers
            # installed on ``simulate_vehicle`` see each real simulation.
            return simulate_vehicle(
                spec,
                builder,
                trace_level=trace_level,
                inbox_limit=inbox_limit,
                pool=pool,
                compile_tables=compile_tables,
            )

        if not memo:
            return [run(spec) for spec in specs]
        cache: dict[tuple, VehicleOutcome] = {}
        outcomes: list[VehicleOutcome] = []
        fallbacks = 0
        for spec in specs:
            if not all(action.kind in SEED_INDEPENDENT_KINDS for action in spec.actions):
                fallbacks += 1
                outcomes.append(run(spec))
                continue
            key = (spec.scenario, spec.enforcement, spec.duration_s, spec.actions)
            cached = cache.get(key)
            if cached is None:
                cached = cache[key] = run(spec)
                outcomes.append(cached)
            else:
                outcomes.append(
                    replace(
                        cached,
                        vehicle_id=spec.vehicle_id,
                        wall_seconds=0.0,
                        build_seconds=0.0,
                    )
                )
        registry = _obs_metrics.ACTIVE
        if registry.enabled:
            registry.inc("backend.vectorised.chunks")
            registry.inc("backend.vectorised.vehicles", len(outcomes) - fallbacks)
            registry.inc("backend.vectorised.classes", len(cache))
            if fallbacks:
                registry.inc("backend.fallback_vehicles", fallbacks)
        return outcomes


def _simulate_chunk(
    specs: Sequence[VehicleSpec],
    trace_level: str = TraceLevel.COUNTERS.value,
    inbox_limit: int | None = DEFAULT_FLEET_INBOX_LIMIT,
    reuse_cars: bool = True,
    compile_tables: bool = True,
    telemetry: bool = False,
    fault: "FaultEvent | None" = None,
    memo: bool = False,
) -> tuple[list[VehicleOutcome], dict | None]:
    """Simulate one pickled chunk; returns ``(outcomes, metrics snapshot)``."""
    apply_worker_fault(fault)
    registry = _begin_chunk_telemetry(telemetry)
    outcomes = _simulate_specs(
        specs, trace_level, inbox_limit, reuse_cars, compile_tables, memo
    )
    return outcomes, _drain_chunk_telemetry(registry)


def _chunked(
    specs: Iterable[VehicleSpec], chunk_size: int
) -> Iterator[list[VehicleSpec]]:
    """Slice a spec stream into submission-sized lists, lazily.

    Works on any iterable -- in particular the lazy
    :meth:`~repro.fleet.scenarios.FleetScenario.iter_vehicle_specs`
    stream -- and only ever holds one chunk, which is what keeps the
    parent O(chunk) however large the fleet is.
    """
    iterator = iter(specs)
    while True:
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


def _simulate_chunk_shm(
    handle: ShmHandle,
    trace_level: str = TraceLevel.COUNTERS.value,
    inbox_limit: int | None = DEFAULT_FLEET_INBOX_LIMIT,
    reuse_cars: bool = True,
    compile_tables: bool = True,
    telemetry: bool = False,
    fault: "FaultEvent | None" = None,
    memo: bool = False,
) -> tuple[ShmHandle, dict | None]:
    """Worker entry point for shared-memory spec transfer.

    Decodes (and unlinks) the parent's :class:`SpecBlock` segment,
    simulates the chunk exactly as :func:`_simulate_chunk` would, and
    returns the outcomes as a fresh :class:`OutcomeBlock` segment --
    the only things crossing the pipe are two ``(name, size)`` handles
    plus (telemetry runs only) the chunk's drained metrics snapshot.
    Telemetry activates before the spec read and drains after the
    outcome write so the worker-side shm counters cover both segments.
    Injected faults strike *before* the spec read: a crashing worker
    leaves its segment behind for the parent's timeout path to reclaim,
    exactly like a real mid-flight death.
    """
    apply_worker_fault(fault)
    registry = _begin_chunk_telemetry(telemetry)
    with span("simulate.decode_specs"):
        specs = SpecBlock.from_bytes(read_block(handle, unlink=True)).decode()
    outcomes = _simulate_specs(
        specs, trace_level, inbox_limit, reuse_cars, compile_tables, memo
    )
    with span("simulate.encode_outcomes"):
        out_handle = write_block(OutcomeBlock.encode(outcomes).to_bytes())
    return out_handle, _drain_chunk_telemetry(registry)
