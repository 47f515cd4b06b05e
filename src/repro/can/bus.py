"""The shared CAN bus.

CAN is a multi-drop, multi-master broadcast bus: every attached node
sees every frame, and when several nodes want to transmit at once the
frame with the numerically lowest identifier wins arbitration (paper
Section V).  This model reproduces those semantics on top of the
discrete-event scheduler: submitted frames queue for arbitration, the
bus is occupied for the frame's transmission time, and completed frames
are broadcast to every attached node except the sender.

Arbitration is a binary heap keyed on ``(priority, submission
sequence)``: winning the bus costs O(log n) in the number of pending
frames, so a flood storm of n frames costs O(n log n) total instead of
the O(n^2 log n) a re-sort per transmission would pay.  The pop order is
bit-identical to sorting the pending list, because the key is unique
(the submission sequence breaks every tie).

Delivery plans
--------------
Every receiver's policy engine and acceptance filter decide on every
frame (paper Figs. 3-4), and :meth:`repro.can.node.CANNode.wire_receive`
is the one implementation of that receive path.  With counters-only
retention and compiled decision tables a receiver's verdict depends only
on the frame's identifier, its sender and the bus configuration, so the
first frame of each ``(configuration, identifier, sender)`` goes through
``wire_receive`` at every receiver and the verdicts it produced become a
plan, memoised process-wide by the value of the configuration
(:mod:`repro.can.plans`).

A frame that hits a plan performs only its side effects, receiver by
receiver in attachment order: the receive-error decrement, the inbox and
id-log appends and the ``on_receive``/``on_receive_blocked`` hooks.  Its
pure counters -- transceiver receptions, read-decision counts and
latency, controller accept/reject counts, :class:`NodeCounters`,
:attr:`BusStatistics.frames_delivered` and both trace count tables --
are one tally per frame, expanded when the bus flushes.

The bus flushes before any verdict input changes (filter edits,
compromise and restore, standby and enable, compiled-table installs,
policy updates, policy-engine and blocked-hook assignment), before
attach, detach and every node, controller, transceiver, engine or bus
reset, inside every trace count query, and when
:meth:`EventScheduler.run` or :meth:`~EventScheduler.step` returns.  So
every counter is exact whenever no event is running, and trace count
queries are always exact -- a query from inside a receive hook also
counts the receivers before it, and the rest of that frame then takes
the unplanned path, as does a frame whose hook changed a verdict input.
The unplanned path -- ``wire_receive`` at every receiver -- also serves
FULL and RING traces, stand-in policy hooks, engines without a compiled
table and extended identifiers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable

from repro.can import plans as plan_memo
from repro.can.frame import MAX_STANDARD_ID, CANFrame, FrameKind
from repro.can.plans import Plan
from repro.can.scheduler import EventScheduler
from repro.can.trace import DEFAULT_RING_SIZE, BusTrace, TraceEventKind, TraceLevel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.can.node import CANNode

_TRANSMITTED_V = TraceEventKind.TRANSMITTED.value

#: Receive verdicts.  A plan outcome's *slot* is ``3 * index + verdict``
#: for the receiver at ``index``; the count tables key on kind values.
_DELIVERED, _POLICY_BLOCKED, _FILTER_BLOCKED = 0, 1, 2
_VERDICT_KINDS = (
    TraceEventKind.DELIVERED.value,
    TraceEventKind.BLOCKED_READ_POLICY.value,
    TraceEventKind.BLOCKED_READ_FILTER.value,
)
#: Reasons handed to ``on_receive_blocked``, per verdict.
_BLOCK_REASONS = (None, "policy-engine", "software-filter")

#: ``CANBus._plans`` when the configuration cannot be planned.
_UNPLANNED: dict = {}

#: Default CAN bitrate (500 kbit/s, typical for powertrain buses).
DEFAULT_BITRATE_BPS = 500_000


@dataclass
class BusStatistics:
    """Aggregate counters for one bus."""

    frames_submitted: int = 0
    frames_transmitted: int = 0
    frames_delivered: int = 0
    arbitration_conflicts: int = 0
    busy_time: float = 0.0

    def utilisation(self, elapsed: float) -> float:
        """Fraction of *elapsed* simulation time the bus was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class CANBus:
    """A shared broadcast CAN bus with priority arbitration.

    Parameters
    ----------
    scheduler:
        The discrete-event scheduler driving the simulation.
    bitrate_bps:
        Bus bitrate used to convert frame bit lengths into bus-occupancy
        time.
    name:
        Diagnostic name of the bus (a vehicle may have several).
    trace_level:
        Trace retention level (see :class:`repro.can.trace.TraceLevel`);
        fleet-scale runs use ``RING`` or ``COUNTERS`` for O(1) memory.
    trace_ring_size:
        Window size when ``trace_level`` is ``RING``.
    """

    def __init__(
        self,
        scheduler: EventScheduler | None = None,
        bitrate_bps: int = DEFAULT_BITRATE_BPS,
        name: str = "can0",
        trace_level: TraceLevel | str = TraceLevel.FULL,
        trace_ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.bitrate_bps = bitrate_bps
        self.name = name
        self.trace = BusTrace(level=trace_level, ring_size=trace_ring_size)
        self.trace._flush_owner = self._flush
        self.statistics = BusStatistics()
        self._nodes: dict[str, "CANNode"] = {}
        #: Arbitration heap of ``(priority, sequence, frame, sender)``.
        self._pending: list[tuple[int, int, CANFrame, str]] = []
        self._submission_sequence = 0
        self._busy = False
        self._in_flight: tuple[int, int, CANFrame, str] | None = None
        #: Transmission-time memo for standard DATA frames, keyed by
        #: payload length (the only property their duration depends
        #: on); other frame kinds compute their duration directly.
        self._tx_time_cache: dict[int, float] = {}
        #: The configuration's plans (sender -> can_id -> plan) while
        #: armed, ``_UNPLANNED`` when it cannot be planned, ``None`` once
        #: a verdict input changed (the next frame re-arms).
        self._plans: dict[str, dict[int, Plan]] | None = None
        #: Attached nodes in attachment order as of arming; plan
        #: indices point into it.
        self._receivers: tuple["CANNode", ...] = ()
        #: Frames per plan since the last flush.
        self._tally: dict[Plan, int] = {}
        #: The plan whose side effects are running, and the index of the
        #: receiver whose hook is running (a flush inside that hook
        #: counts the receivers up to it).
        self._hit: Plan | None = None
        self._hit_index = 0
        #: Plans this bus built, and frames it delivered from a plan,
        #: since construction or the last reset.
        self.plans_built = 0
        self.plans_hit = 0

    # -- topology ------------------------------------------------------------------

    def attach(self, node: "CANNode") -> None:
        """Attach *node* to the bus (names must be unique per bus)."""
        if node.name in self._nodes:
            raise ValueError(f"a node named {node.name!r} is already attached to {self.name}")
        plan_memo.invalidate()
        self._nodes[node.name] = node
        node.transceiver.attach(self, node)
        node.on_attached(self)

    def detach(self, node_name: str) -> None:
        """Detach the named node from the bus.

        Frames the node queued that have not won arbitration yet leave
        with it (a frame already on the wire completes).  Clears the
        node's back-reference too, so a detached node's ``send()``
        raises ``NodeDetachedError`` instead of silently tracing to (and
        transmitting on) its former bus.
        """
        node = self._nodes.get(node_name)
        if node is None:
            raise KeyError(f"no node named {node_name!r} attached to {self.name}")
        plan_memo.invalidate()
        del self._nodes[node_name]
        if any(entry[3] == node_name for entry in self._pending):
            self._pending = [entry for entry in self._pending if entry[3] != node_name]
            heapq.heapify(self._pending)
        node.transceiver.detach()
        node.on_detached()

    @property
    def nodes(self) -> list["CANNode"]:
        """Attached nodes, in attachment order."""
        return list(self._nodes.values())

    def node(self, name: str) -> "CANNode":
        """Return the attached node with the given name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} attached to {self.name}") from None

    def node_names(self) -> list[str]:
        """Names of attached nodes."""
        return list(self._nodes)

    # -- data path ------------------------------------------------------------------

    def submit(self, frame: CANFrame, sender: str) -> None:
        """Queue *frame* from *sender* for arbitration and transmission."""
        self.statistics.frames_submitted += 1
        self._submission_sequence += 1
        heapq.heappush(
            self._pending, (frame.priority, self._submission_sequence, frame, sender)
        )
        if len(self._pending) > 1:
            self.statistics.arbitration_conflicts += 1
        if not self._busy:
            self._start_next_transmission()

    def _start_next_transmission(self) -> None:
        if not self._pending:
            self._busy = False
            return
        self._busy = True
        winner = heapq.heappop(self._pending)
        self._in_flight = winner
        frame = winner[2]
        # Duration depends only on (kind, extended, dlc); the common
        # standard data frame is memoised by payload length alone.
        if frame.kind is FrameKind.DATA and not frame.extended:
            time_key = len(frame.data)
            duration = self._tx_time_cache.get(time_key)
            if duration is None:
                duration = self._tx_time_cache[time_key] = frame.transmission_time(
                    self.bitrate_bps
                )
        else:
            duration = frame.transmission_time(self.bitrate_bps)
        self.statistics.busy_time += duration
        # Only one frame occupies the wire at a time, so the winner rides
        # on the bus itself rather than in a per-transmission closure.
        # (Inline of EventScheduler.schedule_fast.)
        scheduler = self.scheduler
        heapq.heappush(
            scheduler._queue,
            (scheduler._now + duration, next(scheduler._sequence), self._complete_transmission),
        )

    def _complete_transmission(self) -> None:
        pending = self._in_flight
        self._in_flight = None
        if pending is None:  # pragma: no cover - scheduler cleared mid-flight
            self._busy = False
            return
        frame, sender = pending[2], pending[3]
        sender_node = self._nodes.get(sender)
        if sender_node is not None:
            sender_node.controller.record_tx_success()

        plans = self._plans
        if plans is None:
            plans = self._arm()
        can_id = frame.can_id
        by_id = plans.get(sender) if can_id <= MAX_STANDARD_ID else None
        plan = by_id.get(can_id) if by_id is not None else None
        if plan is None:
            self.statistics.frames_transmitted += 1
            self.trace.record(
                self.scheduler._now, TraceEventKind.TRANSMITTED, frame, node=sender
            )
            if plans is _UNPLANNED or can_id > MAX_STANDARD_ID:
                self._receive(frame, sender_node, self._receivers)
            else:
                self._build_plan(plans, frame, sender, sender_node)
        else:
            # Plan hit: side effects only, in attachment order; the
            # transmission and every pure counter are this frame's tally.
            effects = plan.effects
            if effects:
                receivers = self._receivers
                self._hit = plan
                for index, blocked_reason in effects:
                    node = receivers[index]
                    if blocked_reason is None:
                        controller = node.controller
                        if controller._rx_error_counter > 0:
                            controller._rx_error_counter -= 1
                        node.inbox.append(frame)
                        node._received_id_log.append(can_id)
                        hook = node._hooks.on_receive
                        if hook is None:
                            continue
                        self._hit_index = index
                        hook(frame)
                    else:
                        hook = node._hooks.on_receive_blocked
                        if hook is None:
                            continue
                        self._hit_index = index
                        hook(frame, blocked_reason)
                    if self._hit is None:
                        # A flush ran inside the hook and counted this
                        # frame up to here; the rest goes unplanned.
                        self._receive(frame, sender_node, receivers[index + 1 :])
                        break
                else:
                    self._hit = None
                    tally = self._tally
                    tally[plan] = tally.get(plan, 0) + 1
            else:
                tally = self._tally
                tally[plan] = tally.get(plan, 0) + 1
        self._busy = False
        if self._pending:
            self._start_next_transmission()

    def _receive(
        self,
        frame: CANFrame,
        sender_node: "CANNode | None",
        receivers: Iterable["CANNode"],
    ) -> None:
        """The unplanned path: ``wire_receive`` at every listening receiver."""
        for node in receivers:
            if node is sender_node:
                continue
            transceiver = node.transceiver
            if transceiver._enabled:
                transceiver.frames_received += 1
                node.wire_receive(frame)

    # -- delivery plans ---------------------------------------------------------------

    def _arm(self) -> dict[str, dict[int, Plan]]:
        """Read the configuration and take up its memoised plans."""
        receivers = self._receivers = tuple(self._nodes.values())
        configuration = self._configuration(receivers)
        self._plans = _UNPLANNED if configuration is None else plan_memo.plans_for(configuration)
        plan_memo.arm(self)
        return self._plans

    def _configuration(self, receivers: tuple["CANNode", ...]) -> tuple | None:
        """The value of every verdict input, or ``None`` when unplannable."""
        if self.trace._records is not None:
            return None
        configuration = []
        for node in receivers:
            engine = node._policy_engine
            read_mask = None
            if engine is not None:
                read_mask = getattr(engine, "_compiled_read_mask", None)
                if read_mask is None:  # no compiled table, or a stand-in hook
                    return None
            rx_filters = node.controller.rx_filters
            configuration.append(
                (
                    node.name,
                    read_mask,
                    rx_filters.compile_mask(),
                    rx_filters._compromised,
                    node.transceiver._enabled,
                    node._hooks.on_receive_blocked is not None,
                )
            )
        return tuple(configuration)

    def _build_plan(
        self,
        plans: dict[str, dict[int, Plan]],
        frame: CANFrame,
        sender: str,
        sender_node: "CANNode | None",
    ) -> None:
        """Deliver *frame* through ``wire_receive`` and memoise the verdicts."""
        receivers = self._receivers
        outcomes = []
        effects = []
        for index, node in enumerate(receivers):
            if node is sender_node:
                continue
            transceiver = node.transceiver
            if not transceiver._enabled:
                continue
            transceiver.frames_received += 1
            counters = node.counters
            policy_blocks = counters.receive_blocked_by_policy
            if node.wire_receive(frame):
                verdict = _DELIVERED
                effects.append((index, None))
            else:
                verdict = (
                    _POLICY_BLOCKED
                    if counters.receive_blocked_by_policy != policy_blocks
                    else _FILTER_BLOCKED
                )
                if node._hooks.on_receive_blocked is not None:
                    effects.append((index, _BLOCK_REASONS[verdict]))
            outcomes.append((3 * index + verdict, _VERDICT_KINDS[verdict], node.name))
            if self._plans is not plans:
                # A hook changed a verdict input: later receivers see the
                # new state, and these verdicts are no plan of either.
                self._receive(frame, sender_node, receivers[index + 1 :])
                return
        plan_memo.remember(plans, sender, frame.can_id, tuple(outcomes), tuple(effects))
        self.plans_built += 1

    def _flush(self) -> None:
        """Expand pending tallies into the counters they stand for."""
        tally = self._tally
        hit = self._hit
        if not tally and hit is None:
            return
        self._tally = {}
        self._hit = None
        work = [(plan.sender, plan.can_id, plan.outcomes, frames) for plan, frames in tally.items()]
        if hit is not None:
            # Inside a hook of a plan hit: count that frame up to the
            # receiver whose hook is running.
            limit = 3 * self._hit_index + 2
            reached = tuple(outcome for outcome in hit.outcomes if outcome[0] <= limit)
            work.append((hit.sender, hit.can_id, reached, 1))
        trace = self.trace
        kind_counts = trace._kind_counts
        counts = trace._counts
        receivers = self._receivers
        per_slot = [0] * (3 * len(receivers))
        transmitted = 0
        for sender, can_id, outcomes, frames in work:
            transmitted += frames
            kind_counts[_TRANSMITTED_V] = kind_counts.get(_TRANSMITTED_V, 0) + frames
            key = (_TRANSMITTED_V, sender, can_id)
            counts[key] = counts.get(key, 0) + frames
            for slot, kind, name in outcomes:
                per_slot[slot] += frames
                kind_counts[kind] = kind_counts.get(kind, 0) + frames
                key = (kind, name, can_id)
                counts[key] = counts.get(key, 0) + frames
        statistics = self.statistics
        statistics.frames_transmitted += transmitted
        self.plans_hit += transmitted
        for slot, frames in enumerate(per_slot):
            if not frames:
                continue
            index, verdict = divmod(slot, 3)
            node = receivers[index]
            node.transceiver.frames_received += frames
            engine = node._policy_engine
            if engine is not None:
                block = engine._read_block
                block.decisions_made += frames
                # Repeated addition, not a product: the total must round
                # exactly as one addition per decision does.
                total, latency = block.total_latency_s, block.latency_s
                for _ in repeat(None, frames):
                    total += latency
                block.total_latency_s = total
                if verdict == _POLICY_BLOCKED:
                    block.blocks += frames
                else:
                    block.grants += frames
            counters = node.counters
            if verdict == _DELIVERED:
                node.controller.frames_accepted += frames
                counters.received += frames
                statistics.frames_delivered += frames
            elif verdict == _FILTER_BLOCKED:
                node.controller.frames_rejected += frames
                counters.receive_blocked_by_filter += frames
            else:
                counters.receive_blocked_by_policy += frames

    def _disarm(self) -> None:
        """A verdict input is changing: flush, and re-arm on the next frame."""
        self._flush()
        self._plans = None

    def reset(self) -> None:
        """Restore the bus data path to its just-built state.

        Attached nodes stay attached (the caller detaches any rogue
        nodes first); statistics, the trace, the arbitration heap and
        the submission sequence all restart from zero.  The scheduler is
        deliberately not touched -- it may be externally owned; callers
        reset it separately.
        """
        self._flush()
        self.trace.clear()
        self.statistics = BusStatistics()
        self._pending.clear()
        self._submission_sequence = 0
        self._busy = False
        self._in_flight = None
        self.plans_built = 0
        self.plans_hit = 0

    def record_delivery(self, frame: CANFrame, node: str) -> None:
        """Record that *frame* reached the application on *node*."""
        self.statistics.frames_delivered += 1
        # _now: bypass the property on the per-delivery fast path.
        self.trace.record(self.scheduler._now, TraceEventKind.DELIVERED, frame, node=node)

    def record_block(
        self, frame: CANFrame, node: str, kind: TraceEventKind, detail: str = ""
    ) -> None:
        """Record that *frame* was blocked at *node* for the given reason."""
        self.trace.record(self.scheduler._now, kind, frame, node=node, detail=detail)

    # -- convenience -------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by *duration* seconds."""
        self.scheduler.run(until=self.scheduler.now + duration)

    def run_until_idle(self, max_events: int = 100_000) -> None:
        """Run until no events remain (bounded by *max_events*)."""
        self.scheduler.run(max_events=max_events)

    def broadcast_reach(self, sender: str) -> Iterable[str]:
        """Names of nodes that would see a frame sent by *sender*."""
        return [name for name in self._nodes if name != sender]
