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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.can.frame import MAX_STANDARD_ID, CANFrame, FrameKind
from repro.can.scheduler import EventScheduler
from repro.can.trace import DEFAULT_RING_SIZE, BusTrace, TraceEventKind, TraceLevel

#: Event-kind value strings for the fused delivery loop (string keys hash
#: through cached C-level hashes; enum hashing is a Python-level call).
_TRANSMITTED_V = TraceEventKind.TRANSMITTED.value
_DELIVERED_V = TraceEventKind.DELIVERED.value
_BLOCKED_READ_POLICY_V = TraceEventKind.BLOCKED_READ_POLICY.value
_BLOCKED_READ_FILTER_V = TraceEventKind.BLOCKED_READ_FILTER.value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.can.node import CANNode

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

    # -- topology ------------------------------------------------------------------

    def attach(self, node: "CANNode") -> None:
        """Attach *node* to the bus (names must be unique per bus)."""
        if node.name in self._nodes:
            raise ValueError(f"a node named {node.name!r} is already attached to {self.name}")
        self._nodes[node.name] = node
        node.transceiver.attach(self, node)
        node.on_attached(self)

    def detach(self, node_name: str) -> None:
        """Detach the named node from the bus.

        Clears the node's back-reference too, so a detached node's
        ``send()`` raises ``NodeDetachedError`` instead of silently
        tracing to (and transmitting on) its former bus.
        """
        node = self._nodes.pop(node_name, None)
        if node is None:
            raise KeyError(f"no node named {node_name!r} attached to {self.name}")
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
        statistics = self.statistics
        statistics.frames_transmitted += 1
        trace = self.trace
        counting = trace._records is None
        can_id = frame.can_id
        # Local aliases for the trace's two count tables: the
        # TRANSMITTED event and the fused delivery loop below update
        # them directly (same arithmetic as BusTrace.record) so no
        # per-event call is made at all.
        kind_counts = trace._kind_counts
        counts = trace._counts
        if counting:
            kind_counts[_TRANSMITTED_V] = kind_counts.get(_TRANSMITTED_V, 0) + 1
            key = (_TRANSMITTED_V, sender, can_id)
            counts[key] = counts.get(key, 0) + 1
        else:
            trace.record(
                self.scheduler.now, TraceEventKind.TRANSMITTED, frame, node=sender
            )
        sender_node = self._nodes.get(sender)
        if sender_node is not None:
            sender_node.controller.record_tx_success()

        # Broadcast to every other node.  When a receiver's policy
        # engine holds a compiled decision table (see
        # :mod:`repro.core.compiled`) and the trace is counters-only,
        # the whole receive path -- transceiver, permit probe, software
        # acceptance filter, the trace's two count tables -- runs
        # fused in this loop: the enforcement decision is one bitmask
        # probe and no per-delivery call chain is built.  Counter
        # effects are bit-identical to the object path
        # (:meth:`repro.can.node.CANNode.wire_receive`), which remains
        # the authoritative fallback for everything else.
        fuse = counting and can_id <= MAX_STANDARD_ID
        byte_index = can_id >> 3
        bit = 1 << (can_id & 7)
        for name, node in self._nodes.items():
            if node is sender_node:
                continue
            transceiver = node.transceiver
            if not transceiver._enabled:
                continue
            transceiver.frames_received += 1
            if not fuse:
                node.wire_receive(frame)
                continue
            engine = node.policy_engine
            blocked_reason = None
            if engine is None:
                permitted = True
            else:
                try:
                    mask = engine._compiled_read_mask
                except AttributeError:  # non-HPE policy hook (test stand-ins)
                    mask = None
                if mask is None:
                    node.wire_receive(frame)
                    continue
                block = engine._read_block
                block.decisions_made += 1
                block.total_latency_s += block.latency_s
                permitted = bool(mask[byte_index] & bit)
                if permitted:
                    block.grants += 1
            if permitted:
                controller = node.controller
                rx_filters = controller.rx_filters
                accept_mask = rx_filters._accept_mask
                if rx_filters._compromised or (
                    accept_mask[byte_index] & bit
                    if accept_mask is not None
                    else rx_filters.accepts_id(can_id)
                ):
                    controller.frames_accepted += 1
                    if controller._rx_error_counter > 0:
                        controller._rx_error_counter -= 1
                    node.counters.received += 1
                    node.inbox.append(frame)
                    node._received_id_log.append(can_id)
                    statistics.frames_delivered += 1
                    value = _DELIVERED_V
                    hook = node.hooks.on_receive
                else:
                    controller.frames_rejected += 1
                    node.counters.receive_blocked_by_filter += 1
                    value = _BLOCKED_READ_FILTER_V
                    hook = node.hooks.on_receive_blocked
                    blocked_reason = "software-filter"
            else:
                block.blocks += 1
                node.counters.receive_blocked_by_policy += 1
                value = _BLOCKED_READ_POLICY_V
                hook = node.hooks.on_receive_blocked
                blocked_reason = "policy-engine"
            kind_counts[value] = kind_counts.get(value, 0) + 1
            key = (value, name, can_id)
            counts[key] = counts.get(key, 0) + 1
            if hook is not None:
                if blocked_reason is None:
                    hook(frame)
                else:
                    hook(frame, blocked_reason)
        self._busy = False
        if self._pending:
            self._start_next_transmission()

    def reset(self) -> None:
        """Restore the bus data path to its just-built state.

        Attached nodes stay attached (the caller detaches any rogue
        nodes first); statistics, the trace, the arbitration heap and
        the submission sequence all restart from zero.  The scheduler is
        deliberately not touched -- it may be externally owned; callers
        reset it separately.
        """
        self.trace.clear()
        self.statistics = BusStatistics()
        self._pending.clear()
        self._submission_sequence = 0
        self._busy = False
        self._in_flight = None

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
