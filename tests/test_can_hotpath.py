"""Tests for the fast-path frame pipeline.

Covers the trace retention levels (FULL / RING / COUNTERS counter
equivalence, and every count query against a recount of the FULL
trace's records), delivery plans against the unplanned receive path,
heap-vs-sort arbitration order equivalence, the slimmed scheduler,
bounded inbox retention, the ``detach`` regressions and the
deterministic ``BusTrace.merge`` tie-break.
"""

import heapq
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentConfig, FleetSession
from repro.attacks.attacker import MaliciousNode
from repro.can import plans as plan_memo
from repro.can.bus import CANBus
from repro.can.errors import NodeDetachedError
from repro.can.frame import MAX_STANDARD_ID, CANFrame
from repro.can.node import CANNode
from repro.can.scheduler import Event, EventScheduler
from repro.can.trace import BLOCKED_KINDS, BusTrace, TraceEventKind, TraceLevel
from repro.core.enforcement import EnforcementConfig
from repro.obs.metrics import MetricsRegistry
from repro.vehicle.modes import CarMode


def build_bus(trace_level=TraceLevel.FULL, *names, inbox_limit=None):
    bus = CANBus(EventScheduler(), trace_level=trace_level)
    nodes = {}
    for name in names:
        node = CANNode(name, inbox_limit=inbox_limit)
        bus.attach(node)
        nodes[name] = node
    return bus, nodes


def drive_traffic(bus, nodes, frames):
    for sender, can_id in frames:
        nodes[sender].send(CANFrame(can_id=can_id, data=b"\x01"))
    bus.run_until_idle()


TRAFFIC = [("a", 0x10), ("b", 0x20), ("a", 0x10), ("c", 0x7FF), ("b", 0x20), ("a", 0x30)]


class TestTraceLevels:
    @pytest.mark.parametrize("level", list(TraceLevel))
    def test_counts_identical_across_levels(self, level):
        reference_bus, reference_nodes = build_bus(TraceLevel.FULL, "a", "b", "c")
        drive_traffic(reference_bus, reference_nodes, TRAFFIC)
        bus, nodes = build_bus(level, "a", "b", "c")
        drive_traffic(bus, nodes, TRAFFIC)
        reference = reference_bus.trace
        trace = bus.trace
        assert len(trace) == len(reference)
        assert trace.summary() == reference.summary()
        assert trace.blocked_count() == reference.blocked_count()
        for kind in TraceEventKind:
            assert trace.count(kind) == reference.count(kind)
        for node in ("a", "b", "c", ""):
            assert trace.count_for_node(node) == reference.count_for_node(node)
            assert trace.count_for_node(node, TraceEventKind.DELIVERED) == (
                reference.count_for_node(node, TraceEventKind.DELIVERED)
            )
        for can_id in (0x10, 0x20, 0x30, 0x7FF, 0x555):
            assert trace.count_for_frame_id(can_id) == reference.count_for_frame_id(can_id)
            assert trace.count_for_frame_id(can_id, TraceEventKind.TRANSMITTED) == (
                reference.count_for_frame_id(can_id, TraceEventKind.TRANSMITTED)
            )

    def test_counters_level_allocates_no_records(self):
        trace = BusTrace(level=TraceLevel.COUNTERS)
        assert trace.record(0.0, TraceEventKind.SUBMITTED, CANFrame(can_id=0x1)) is None
        assert len(trace) == 1
        assert trace.records_retained == 0
        assert list(trace) == []
        assert trace.of_kind(TraceEventKind.SUBMITTED) == []
        assert trace.count(TraceEventKind.SUBMITTED) == 1
        with pytest.raises(IndexError):
            trace[0]

    def test_ring_level_bounds_records_but_not_counts(self):
        trace = BusTrace(level=TraceLevel.RING, ring_size=4)
        for i in range(10):
            trace.record(float(i), TraceEventKind.TRANSMITTED, CANFrame(can_id=i))
        assert len(trace) == 10
        assert trace.records_retained == 4
        assert [r.frame.can_id for r in trace] == [6, 7, 8, 9]
        assert trace.count(TraceEventKind.TRANSMITTED) == 10
        assert trace.count_for_frame_id(0, TraceEventKind.TRANSMITTED) == 1

    def test_level_coercion_and_validation(self):
        assert BusTrace(level="counters").level is TraceLevel.COUNTERS
        assert TraceLevel.coerce("RING") is TraceLevel.RING
        with pytest.raises(ValueError):
            TraceLevel.coerce("everything")
        with pytest.raises(ValueError):
            BusTrace(level=TraceLevel.RING, ring_size=0)

    def test_clear_resets_counters(self):
        trace = BusTrace(level=TraceLevel.COUNTERS)
        trace.record(0.0, TraceEventKind.BLOCKED_READ_POLICY, CANFrame(can_id=0x1), node="n")
        trace.clear()
        assert len(trace) == 0
        assert trace.blocked_count() == 0
        assert trace.summary() == {}
        assert trace.count_for_node("n") == 0

    def test_summary_preserves_first_occurrence_order(self):
        trace = BusTrace()
        frame = CANFrame(can_id=0x1)
        trace.record(0.0, TraceEventKind.TRANSMITTED, frame)
        trace.record(0.1, TraceEventKind.SUBMITTED, frame)
        trace.record(0.2, TraceEventKind.TRANSMITTED, frame)
        assert list(trace.summary()) == ["transmitted", "submitted"]


def assert_counts_match_recount(trace, records):
    """Every count query of *trace* equals a recount over *records*."""
    assert len(trace) == len(records)
    kinds = list(TraceEventKind)
    nodes = sorted({r.node for r in records} | {"", "absent"})
    can_ids = sorted({r.frame.can_id for r in records} | {0x7FE})
    per_kind = {}  # first-occurrence order, as summary() promises
    for r in records:
        per_kind[r.kind.value] = per_kind.get(r.kind.value, 0) + 1
    assert list(trace.summary().items()) == list(per_kind.items())
    for kind in kinds:
        assert trace.count(kind) == sum(r.kind is kind for r in records)
    assert trace.blocked_count() == sum(r.kind in BLOCKED_KINDS for r in records)
    assert trace.policy_block_count() == sum(
        r.kind in (TraceEventKind.BLOCKED_READ_POLICY, TraceEventKind.BLOCKED_WRITE_POLICY)
        for r in records
    )
    assert trace.filter_block_count() == sum(
        r.kind in (TraceEventKind.BLOCKED_READ_FILTER, TraceEventKind.BLOCKED_WRITE_FILTER)
        for r in records
    )
    for kind in [None, *kinds]:
        for node in nodes:
            assert trace.count_for_node(node, kind) == sum(
                r.node == node and kind in (None, r.kind) for r in records
            )
        for can_id in can_ids:
            assert trace.count_for_frame_id(can_id, kind) == sum(
                r.frame.can_id == can_id and kind in (None, r.kind) for r in records
            )
    registry = MetricsRegistry()
    trace.export_metrics(registry)
    snapshot = registry.snapshot()
    assert snapshot.counter("bus.events_total") == len(records)
    assert snapshot.counter("bus.blocked_total") == trace.blocked_count()


_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(list(TraceEventKind)),
        st.sampled_from(["", "a", "b", "c"]),
        st.sampled_from([0x0, 0x10, 0x7FF, 0x1234]),
    ),
    max_size=60,
)

#: (sender, can_id) pairs for the bus-level property: ECU senders are
#: policed on write, the rogue node only by the receivers' read side;
#: ids cover catalogue messages, an unknown standard id, the top
#: standard id and one extended id (which is never planned).
_SENDERS = ["Rogue", "EV-ECU", "Sensors", "Telematics", "Safety"]
_IDS = [0x010, 0x020, 0x050, 0x060, 0x080, 0x0A0, 0x0B0, 0x321, 0x7FF, 0x1ABCDE]
_FRAMES = st.lists(
    st.tuples(st.sampled_from(_SENDERS), st.sampled_from(_IDS)), max_size=25
)

_CAR_CONFIGS = {
    "unprotected": None,
    "compiled": EnforcementConfig.full(),
    "object": replace(EnforcementConfig.full(), compile_tables=False),
}


def _car_trace(builder, config, level, frames):
    car = builder.build_car(config, trace_level=level)
    MaliciousNode(car, name="Rogue")
    for sender, can_id in frames:
        frame = CANFrame(can_id=can_id, data=b"\x01", extended=can_id > MAX_STANDARD_ID)
        car.bus.node(sender).send(frame)
    car.bus.run_until_idle()
    return car.bus.trace


class TestCountsEqualARecount:
    """Count queries at every level equal a recount of the FULL records."""

    @settings(max_examples=60, deadline=None)
    @given(events=_EVENTS)
    def test_direct_records(self, events):
        traces = {level: BusTrace(level=level, ring_size=8) for level in TraceLevel}
        for time, (kind, node, can_id) in enumerate(events):
            frame = CANFrame(can_id=can_id, extended=can_id > MAX_STANDARD_ID)
            for trace in traces.values():
                trace.record(float(time), kind, frame, node=node)
        records = list(traces[TraceLevel.FULL])
        for trace in traces.values():
            assert_counts_match_recount(trace, records)

    @settings(max_examples=25, deadline=None)
    @given(engine=st.sampled_from(sorted(_CAR_CONFIGS)), frames=_FRAMES)
    def test_frames_through_a_bus(self, builder, engine, frames):
        config = _CAR_CONFIGS[engine]
        records = list(_car_trace(builder, config, TraceLevel.FULL, frames))
        for level in TraceLevel:
            trace = _car_trace(builder, config, level, frames)
            assert_counts_match_recount(trace, records)

    def test_the_bus_property_reaches_every_receive_outcome(self, builder):
        frames = [(sender, can_id) for sender in _SENDERS for can_id in _IDS]
        for engine, config in _CAR_CONFIGS.items():
            kinds = {r.kind for r in _car_trace(builder, config, TraceLevel.FULL, frames)}
            assert TraceEventKind.DELIVERED in kinds
            if engine == "unprotected":
                assert TraceEventKind.BLOCKED_READ_FILTER in kinds
            else:
                assert {
                    TraceEventKind.BLOCKED_READ_POLICY,
                    TraceEventKind.BLOCKED_WRITE_POLICY,
                } <= kinds


def _bus_state(car, hook_log):
    """Everything observable about a car's bus, for plan-vs-unplanned checks."""
    bus = car.bus
    trace = bus.trace
    kinds = [None, *TraceEventKind]
    names = [*bus.node_names(), "Rogue", ""]
    can_ids = sorted(set(_IDS) | {0x0A0, 0x70})
    nodes = []
    for node in bus.nodes:
        controller, transceiver = node.controller, node.transceiver
        blocks = []
        engine = node.policy_engine
        if engine is not None:
            for block in (engine.read_filter.decision_block, engine.write_filter.decision_block):
                blocks.append(
                    (block.decisions_made, block.grants, block.blocks, block.total_latency_s.hex())
                )
        nodes.append(
            (
                node.name,
                astuple(node.counters),
                controller.frames_accepted,
                controller.frames_rejected,
                controller.frames_transmitted,
                controller.tx_error_counter,
                controller.rx_error_counter,
                transceiver.frames_sent,
                transceiver.frames_received,
                transceiver.enabled,
                node.received_ids(),
                [(f.can_id, f.data, f.source) for f in node.inbox],
                blocks,
            )
        )
    statistics = bus.statistics
    return {
        "summary": list(trace.summary().items()),
        "len": len(trace),
        "blocked": (
            trace.blocked_count(),
            trace.policy_block_count(),
            trace.filter_block_count(),
        ),
        "count": [trace.count(kind) for kind in TraceEventKind],
        "per_node": [trace.count_for_node(n, k) for n in names for k in kinds],
        "per_id": [trace.count_for_frame_id(i, k) for i in can_ids for k in kinds],
        "statistics": (
            statistics.frames_submitted,
            statistics.frames_transmitted,
            statistics.frames_delivered,
            statistics.arbitration_conflicts,
            statistics.busy_time.hex(),
        ),
        "nodes": nodes,
        "hooks": list(hook_log),
    }


def _record_hooks(car, hook_log):
    """Log every application hook call (and keep each ECU's own handler)."""
    for node in car.bus.nodes:
        original = node.hooks.on_receive

        def on_receive(frame, name=node.name, original=original):
            hook_log.append((name, "rx", frame.can_id))
            if original is not None:
                original(frame)

        node.hooks.on_receive = on_receive
    # One blocked-frame hook, so plans also carry blocked receivers.
    car.bus.node("Telematics").hooks.on_receive_blocked = (
        lambda frame, reason: hook_log.append(("Telematics", reason, frame.can_id))
    )


#: Mutations applied between runs of the plan property.
_MUTATIONS = st.sampled_from(
    [
        ("compromise", "EV-ECU"),
        ("compromise", "DoorLocks"),
        ("restore", "EV-ECU"),
        ("restore", "DoorLocks"),
        ("standby", "Safety"),
        ("standby", "Infotainment"),
        ("enable", "Safety"),
        ("enable", "Infotainment"),
        ("mode", CarMode.FAIL_SAFE),
        ("mode", CarMode.REMOTE_DIAGNOSTIC),
        ("mode", CarMode.NORMAL),
        ("alarm", True),
        ("alarm", False),
        ("attach", "Rogue"),
        ("detach", "Rogue"),
        ("rx_errors", "EV-ECU"),
        ("rx_errors", "Infotainment"),
    ]
)


def _mutate(car, mutation):
    operation, argument = mutation
    bus = car.bus
    if operation == "compromise":
        car.ecu(argument).compromise_firmware()
    elif operation == "restore":
        car.ecu(argument).restore_firmware()
    elif operation == "standby":
        bus.node(argument).transceiver.standby()
    elif operation == "enable":
        bus.node(argument).transceiver.enable()
    elif operation == "mode":
        if car.modes.can_transition(argument):
            car.modes.transition(argument)  # the coordinator re-syncs
    elif operation == "alarm":
        car.safety.alarm_armed = argument
        car.sync_enforcement()
    elif operation == "rx_errors":
        for _ in range(3):  # deliveries count the receive-error counter down
            bus.node(argument).controller.record_rx_error()
    elif operation == "attach":
        if argument not in bus.node_names():
            MaliciousNode(car, name=argument)
    elif argument in bus.node_names():
        bus.detach(argument)


def _play(car, script, hook_log, states):
    """Run *script*: frame batches (each followed by a run) and mutations."""
    for step in script:
        if isinstance(step, list):
            for sender, can_id in step:
                if sender in car.bus.node_names():
                    frame = CANFrame(
                        can_id=can_id, data=b"\x01", extended=can_id > MAX_STANDARD_ID
                    )
                    car.bus.node(sender).send(frame)
            car.run(0.02)
            states.append(_bus_state(car, hook_log))
        else:
            _mutate(car, step)
    car.run(0.02)
    states.append(_bus_state(car, hook_log))


def _plan_script(builder, level, config, script):
    """Play *script* twice, reset the car (pooled reuse), play it again."""
    car = builder.build_car(config, start_periodic_traffic=True, trace_level=level)
    hook_log = []
    _record_hooks(car, hook_log)
    MaliciousNode(car, name="Rogue")
    states = []
    for _ in range(2):
        _play(car, script, hook_log, states)
    hits = car.bus.plans_hit
    car.reset()  # the plan memo outlives the reset
    MaliciousNode(car, name="Rogue")
    _play(car, script, hook_log, states)
    return hits + car.bus.plans_hit, states


class TestDeliveryPlans:
    """Frames delivered from plans leave exactly the unplanned path's state."""

    @settings(max_examples=40, deadline=None)
    @given(
        engine=st.sampled_from(["compiled", "unprotected"]),
        script=st.lists(
            st.one_of(
                st.lists(
                    st.tuples(st.sampled_from(_SENDERS), st.sampled_from(_IDS)), max_size=6
                ),
                _MUTATIONS,
            ),
            max_size=10,
        ),
    )
    def test_plans_match_the_unplanned_path(self, builder, engine, script):
        config = _CAR_CONFIGS[engine]
        _, reference = _plan_script(builder, TraceLevel.FULL, config, script)
        hits, planned = _plan_script(builder, TraceLevel.COUNTERS, config, script)
        assert planned == reference
        # Periodic traffic repeats, so the planned car really ran on plans.
        assert hits > 0

    def test_full_and_ring_traces_never_plan(self, builder):
        for level in (TraceLevel.FULL, TraceLevel.RING):
            car = builder.build_car(
                EnforcementConfig.full(), start_periodic_traffic=True, trace_level=level
            )
            car.run(0.05)
            assert car.bus.plans_built == car.bus.plans_hit == 0

    def _hooked_frames(self, builder, level, config, sender, can_id, action):
        """Send *can_id* three times; EV-ECU's hook runs *action* on the second."""
        car = builder.build_car(config, trace_level=level)
        hook_log = []
        _record_hooks(car, hook_log)
        MaliciousNode(car, name="Rogue")
        seen = []
        ev_ecu = car.bus.node("EV-ECU")
        original = ev_ecu.hooks.on_receive

        def on_receive(frame):
            original(frame)
            if frame.can_id == can_id:
                seen.append(frame)
                if len(seen) == 2:
                    action(car)

        ev_ecu.hooks.on_receive = on_receive
        for _ in range(3):
            car.bus.node(sender).send(CANFrame(can_id=can_id, data=b"\x01"))
            car.bus.run_until_idle()
        return car, _bus_state(car, hook_log)

    def test_a_hook_compromising_a_later_receiver_mid_frame(self, builder):
        # DoorLocks (attached after EV-ECU) filters 0x0A0 until compromised.
        def compromise(car):
            car.ecu("DoorLocks").compromise_firmware()

        _, reference = self._hooked_frames(
            builder, TraceLevel.FULL, None, "Rogue", 0x0A0, compromise
        )
        car, planned = self._hooked_frames(
            builder, TraceLevel.COUNTERS, None, "Rogue", 0x0A0, compromise
        )
        assert planned == reference
        # The second frame already reaches the now-compromised DoorLocks.
        assert car.bus.node("DoorLocks").received_ids() == [0x0A0, 0x0A0]
        assert car.bus.plans_hit >= 1

    def test_a_hook_syncing_policy_mid_frame(self, builder):
        # Arming the alarm revokes DoorLocks' read grant for 0x070.
        def arm_alarm(car):
            car.safety.alarm_armed = True
            car.sync_enforcement()

        config = EnforcementConfig.full()
        _, reference = self._hooked_frames(
            builder, TraceLevel.FULL, config, "Rogue", 0x070, arm_alarm
        )
        car, planned = self._hooked_frames(
            builder, TraceLevel.COUNTERS, config, "Rogue", 0x070, arm_alarm
        )
        assert planned == reference
        door_locks = car.bus.node("DoorLocks")
        assert door_locks.received_ids() == [0x070]
        assert door_locks.counters.receive_blocked_by_policy == 2
        assert car.bus.plans_hit >= 1

    def test_a_trace_query_inside_a_hook_is_exact(self, builder):
        counts = {}

        def query(car):
            counts[car.bus.trace.level] = (
                car.bus.trace.summary(),
                car.bus.trace.count_for_node("EV-ECU"),
                car.bus.trace.count_for_frame_id(0x070),
            )

        states = {}
        for level in (TraceLevel.FULL, TraceLevel.COUNTERS):
            _, states[level] = self._hooked_frames(
                builder, level, EnforcementConfig.full(), "Rogue", 0x070, query
            )
        assert counts[TraceLevel.COUNTERS] == counts[TraceLevel.FULL]
        assert states[TraceLevel.COUNTERS] == states[TraceLevel.FULL]

    def test_blocked_hook_assigned_after_plans_exist(self, builder):
        states = {}
        for level in (TraceLevel.FULL, TraceLevel.COUNTERS):
            car = builder.build_car(
                EnforcementConfig.full(), start_periodic_traffic=True, trace_level=level
            )
            hook_log = []
            car.run(0.05)
            for name in ("EPS", "Gateway"):
                car.bus.node(name).hooks.on_receive_blocked = (
                    lambda frame, reason, name=name: hook_log.append((name, reason, frame.can_id))
                )
            car.run(0.05)
            car.bus.node("EPS").hooks.on_receive_blocked = None
            car.run(0.05)
            states[level] = _bus_state(car, hook_log)
            assert hook_log
        assert states[TraceLevel.COUNTERS] == states[TraceLevel.FULL]

    def test_cold_and_warm_memo_give_one_fingerprint(self):
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=12, seed=7, workers=1)
        runs = []
        plan_memo.clear()
        for _ in range(2):
            with FleetSession(config, telemetry=True) as session:
                fingerprint = session.run().fingerprint()
                runs.append((fingerprint, session.metrics_snapshot()))
        (cold, cold_metrics), (warm, warm_metrics) = runs
        assert cold == warm
        assert cold_metrics.counter("can.plans.built") > 0
        assert warm_metrics.counter("can.plans.built") == 0
        assert warm_metrics.counter("can.plans.hit") > cold_metrics.counter("can.plans.hit")


class TestMergeTieBreak:
    def test_same_timestamp_records_merge_deterministically(self):
        first, second = BusTrace(), BusTrace()
        first.record(0.5, TraceEventKind.SUBMITTED, CANFrame(can_id=0x1), node="f1")
        first.record(0.5, TraceEventKind.TRANSMITTED, CANFrame(can_id=0x2), node="f2")
        second.record(0.5, TraceEventKind.DELIVERED, CANFrame(can_id=0x3), node="s1")
        second.record(0.1, TraceEventKind.SUBMITTED, CANFrame(can_id=0x4), node="s2")
        merged = first.merge(second)
        # Time first; at equal times the left trace's records come first,
        # each side keeping its own insertion order.
        assert [r.node for r in merged] == ["s2", "f1", "f2", "s1"]
        # Merging in either direction is deterministic (not necessarily equal).
        again = first.merge(second)
        assert [r.node for r in again] == [r.node for r in merged]

    def test_merge_sums_counters(self):
        first, second = BusTrace(), BusTrace(level=TraceLevel.COUNTERS)
        frame = CANFrame(can_id=0x1)
        first.record(0.0, TraceEventKind.BLOCKED_READ_POLICY, frame, node="n")
        second.record(0.0, TraceEventKind.BLOCKED_READ_POLICY, frame, node="n")
        merged = first.merge(second)
        assert len(merged) == 2
        assert merged.count(TraceEventKind.BLOCKED_READ_POLICY) == 2
        assert merged.blocked_count() == 2
        assert merged.count_for_node("n") == 2
        # Only FULL/RING records are retained; the COUNTERS side had none.
        assert merged.records_retained == 1


class TestArbitrationEquivalence:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=MAX_STANDARD_ID), min_size=1, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_heap_order_matches_sort_order(self, priorities):
        """heappop order over (priority, seq) == stable full sort order."""
        entries = [(priority, seq) for seq, priority in enumerate(priorities)]
        heap = list(entries)
        heapq.heapify(heap)
        popped = [heapq.heappop(heap) for _ in range(len(heap))]
        assert popped == sorted(entries)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=MAX_STANDARD_ID), min_size=1, max_size=40
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_bus_transmits_in_priority_then_submission_order(self, can_ids):
        bus, nodes = build_bus(TraceLevel.FULL, "tx", "rx")
        nodes["rx"].controller.rx_filters.set_default_accept()
        for can_id in can_ids:
            nodes["tx"].send(CANFrame(can_id=can_id, data=b"\x01"))
        bus.run_until_idle()
        transmitted = [r.frame.can_id for r in bus.trace.of_kind(TraceEventKind.TRANSMITTED)]
        # First submission transmits immediately (the bus was idle); the
        # rest arbitrate: lowest id wins, ties in submission order.
        expected = can_ids[:1] + [can_ids[i] for i in sorted(
            range(1, len(can_ids)), key=lambda i: (can_ids[i], i)
        )]
        assert transmitted == expected


class TestDetachRegression:
    def test_detached_node_send_raises(self):
        bus, nodes = build_bus(TraceLevel.FULL, "a", "b")
        bus.detach("a")
        assert nodes["a"].bus is None
        with pytest.raises(NodeDetachedError):
            nodes["a"].send(CANFrame(can_id=0x10))
        # Nothing leaked into the old bus's trace or arbitration queue.
        assert len(bus.trace) == 0
        assert bus.statistics.frames_submitted == 0

    def test_detach_then_reattach_works(self):
        bus, nodes = build_bus(TraceLevel.FULL, "a", "b")
        bus.detach("a")
        bus.attach(nodes["a"])
        assert nodes["a"].send(CANFrame(can_id=0x10))
        bus.run_until_idle()
        assert nodes["b"].received_ids() == [0x10]

    @pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.COUNTERS])
    def test_detach_drops_the_nodes_queued_frames(self, level):
        bus, nodes = build_bus(level, "a", "b", "c")
        assert nodes["b"].send(CANFrame(can_id=0x100))  # occupies the bus
        assert nodes["a"].send(CANFrame(can_id=0x10))
        assert nodes["a"].send(CANFrame(can_id=0x11))
        bus.detach("a")
        bus.run_until_idle()
        assert bus.statistics.frames_transmitted == 1
        assert nodes["c"].received_ids() == [0x100]
        assert bus.trace.count(TraceEventKind.TRANSMITTED) == 1
        assert bus.trace.count_for_node("a", TraceEventKind.TRANSMITTED) == 0

    def test_detach_lets_the_frame_on_the_wire_complete(self):
        bus, nodes = build_bus(TraceLevel.FULL, "a", "b")
        assert nodes["a"].send(CANFrame(can_id=0x10))  # on the wire
        assert nodes["a"].send(CANFrame(can_id=0x11))  # queued
        bus.detach("a")
        bus.run_until_idle()
        assert nodes["b"].received_ids() == [0x10]


class TestInboxRetention:
    def test_bounded_inbox_keeps_newest_frames_and_full_id_log(self):
        bus, nodes = build_bus(TraceLevel.FULL, "tx", "rx", inbox_limit=3)
        nodes["rx"].controller.rx_filters.set_default_accept()
        for can_id in (0x10, 0x11, 0x12, 0x13, 0x14):
            nodes["tx"].send(CANFrame(can_id=can_id, data=b"\x01"))
        bus.run_until_idle()
        rx = nodes["rx"]
        assert rx.counters.received == 5
        assert [f.can_id for f in rx.inbox] == [0x12, 0x13, 0x14]
        assert rx.received_ids() == [0x10, 0x11, 0x12, 0x13, 0x14]
        assert [f.can_id for f in rx.recent_frames(2)] == [0x13, 0x14]
        assert [f.can_id for f in rx.recent_frames(99)] == [0x12, 0x13, 0x14]
        assert rx.recent_frames(0) == []

    def test_set_inbox_limit_roundtrip(self):
        node = CANNode("n")
        assert node.inbox_limit is None
        node.set_inbox_limit(2)
        assert node.inbox_limit == 2
        node.set_inbox_limit(None)
        assert isinstance(node.inbox, list)
        with pytest.raises(ValueError):
            node.set_inbox_limit(0)

    def test_clear_inbox_clears_id_log(self):
        bus, nodes = build_bus(TraceLevel.FULL, "tx", "rx")
        nodes["rx"].controller.rx_filters.set_default_accept()
        nodes["tx"].send(CANFrame(can_id=0x10))
        bus.run_until_idle()
        nodes["rx"].clear_inbox()
        assert nodes["rx"].received_ids() == []


class TestSchedulerSlimming:
    def test_event_has_no_cancelled_field(self):
        assert "cancelled" not in Event.__dataclass_fields__

    def test_schedule_fast_interleaves_deterministically_with_schedule(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(0.1, lambda: order.append("handle"))
        scheduler.schedule_fast(0.1, lambda: order.append("fast"))
        scheduler.schedule_at_fast(0.1, lambda: order.append("at-fast"))
        scheduler.run()
        assert order == ["handle", "fast", "at-fast"]

    def test_handle_event_view(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule(0.25, lambda: None, label="view")
        event = handle.event
        assert isinstance(event, Event)
        assert event.time == pytest.approx(0.25)
        assert event.label == "view"

    def test_cancelled_fast_path_set_is_cleaned_up(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.schedule(0.1, lambda: fired.append(1))
        handle.cancel()
        handle.cancel()  # idempotent
        scheduler.schedule(0.2, lambda: fired.append(2))
        scheduler.run()
        assert fired == [2]
        assert scheduler._cancelled == set()

    def test_periodic_single_task_object_reschedules(self):
        scheduler = EventScheduler()
        ticks = []
        scheduler.schedule_periodic(0.1, lambda: ticks.append(round(scheduler.now, 6)), count=4)
        scheduler.run()
        assert ticks == [0.1, 0.2, pytest.approx(0.3), pytest.approx(0.4)]

    def test_periodic_negative_start_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule_periodic(0.1, lambda: None, start_delay=-1.0)

    def test_cancel_after_fire_does_not_poison_cancellation_set(self):
        scheduler = EventScheduler()
        handles = [scheduler.schedule(0.1 * (i + 1), lambda: None) for i in range(5)]
        scheduler.run(until=0.35)  # fires the first three
        for handle in handles:
            handle.cancel()  # defensive teardown: some already fired
        assert scheduler._cancelled == {h._sequence for h in handles[3:]}
        scheduler.run()
        assert scheduler._cancelled == set()
        assert scheduler.processed_events == 3

    def test_stale_cancellations_cleared_when_queue_drains(self):
        scheduler = EventScheduler()
        fired = []
        handle = None

        def first():
            fired.append("first")
            handle.cancel()  # cancels itself mid-batch: already fired

        handle = scheduler.schedule(0.1, first)
        scheduler.schedule(0.1, lambda: fired.append("second"))
        scheduler.run()
        assert fired == ["first", "second"]
        assert scheduler._cancelled == set()
