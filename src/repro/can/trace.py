"""Bus activity trace.

Every interesting event on the bus (submission, transmission, delivery,
rejection by software filter, rejection by policy engine, error) is
*counted* -- and, depending on the trace's retention level, also
recorded as a :class:`TraceRecord`.  The analysis layer
(:mod:`repro.analysis.metrics`) computes attack-success and
policy-effectiveness metrics from these traces.

Retention levels
----------------

At fleet scale the per-frame record objects dominate memory and
allocation cost, so :class:`BusTrace` keeps two *always-on count
tables* and makes the record list itself optional.  The tables are
events per kind (in first-occurrence order) and events per
``(kind, node, frame identifier)``; every other count is derived from
them.  The levels are:

* :attr:`TraceLevel.FULL` -- every record is kept (the single-vehicle
  debugging default; today's historical behaviour).
* :attr:`TraceLevel.RING` -- only the most recent ``ring_size`` records
  are kept in a bounded deque; the count tables still cover the whole run.
* :attr:`TraceLevel.COUNTERS` -- no record objects are allocated at
  all; every count-based query still works, bit-identically.

All count-based queries are served from the tables and therefore agree
exactly across all three levels.  :meth:`BusTrace.count`,
:meth:`~BusTrace.summary`, :meth:`~BusTrace.blocked_count`,
:meth:`~BusTrace.policy_block_count` and ``len(trace)`` read the per-kind
table in O(kinds); :meth:`~BusTrace.count_for_node` and
:meth:`~BusTrace.count_for_frame_id` sum over the keyed table (the
fleet layer calls only the latter, once per flood attack).  A bus that
delivers frames from plans (:mod:`repro.can.bus`) adds its pending
tallies to both tables before any count query runs and before a new
kind is recorded, so counts and first-occurrence order stay exact.
Record-returning queries (:meth:`~BusTrace.of_kind`, ...) see only the
retained window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from repro.can.frame import CANFrame

#: Default bounded-retention window for :attr:`TraceLevel.RING`.
DEFAULT_RING_SIZE = 4096


class TraceEventKind(Enum):
    """What happened to a frame at a point in its life."""

    SUBMITTED = "submitted"              # application handed frame to its node
    BLOCKED_WRITE_POLICY = "blocked-write-policy"    # outbound policy engine rejected
    BLOCKED_WRITE_FILTER = "blocked-write-filter"    # outbound software filter rejected
    TRANSMITTED = "transmitted"          # frame won arbitration and went on the wire
    DELIVERED = "delivered"              # frame accepted by a receiving node's stack
    BLOCKED_READ_POLICY = "blocked-read-policy"      # inbound policy engine rejected
    BLOCKED_READ_FILTER = "blocked-read-filter"      # inbound software filter rejected
    DROPPED_BUS_OFF = "dropped-bus-off"  # transmitter was bus-off
    ERROR = "error"                      # transmission error on the wire

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The event kinds that represent a frame being blocked by a filter or
#: policy engine in either direction.
BLOCKED_KINDS = frozenset(
    {
        TraceEventKind.BLOCKED_WRITE_POLICY,
        TraceEventKind.BLOCKED_WRITE_FILTER,
        TraceEventKind.BLOCKED_READ_POLICY,
        TraceEventKind.BLOCKED_READ_FILTER,
    }
)

#: String values of :data:`BLOCKED_KINDS` -- the count tables key on
#: value strings because ``Enum.__hash__`` is a Python-level call.
_BLOCKED_VALUES = frozenset(kind.value for kind in BLOCKED_KINDS)


class TraceLevel(Enum):
    """How much per-event state a :class:`BusTrace` retains."""

    FULL = "full"          # unbounded record list (plus count tables)
    RING = "ring"          # bounded deque of the last N records (plus count tables)
    COUNTERS = "counters"  # count tables only; no record objects at all

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def coerce(cls, value: "TraceLevel | str") -> "TraceLevel":
        """Accept a :class:`TraceLevel` or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown trace level {value!r}; known: {[level.value for level in cls]}"
            ) from None


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    kind: TraceEventKind
    frame: CANFrame
    node: str = ""
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] {self.kind.value:<22} {self.node:<16} {self.frame}"


class BusTrace:
    """An append-only event trace with two always-on count tables.

    Parameters
    ----------
    level:
        Retention level (see :class:`TraceLevel`); also accepts the
        level's string value.
    ring_size:
        Window size for :attr:`TraceLevel.RING` retention.
    """

    def __init__(
        self,
        level: TraceLevel | str = TraceLevel.FULL,
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        level = TraceLevel.coerce(level)
        if ring_size <= 0:
            raise ValueError("ring size must be positive")
        self.level = level
        self.ring_size = ring_size
        if level is TraceLevel.FULL:
            self._records: list[TraceRecord] | deque[TraceRecord] | None = []
        elif level is TraceLevel.RING:
            self._records = deque(maxlen=ring_size)
        else:
            self._records = None
        # Both tables key on TraceEventKind *values* (strings): string
        # hashes are cached C-level, enum hashing is a Python call -- a
        # 2x difference on the record() fast path.  A bus's delivery
        # plans add to them on flush (CANBus._flush).
        self._kind_counts: dict[str, int] = {}
        self._counts: dict[tuple[str, str, int], int] = {}
        #: The owning bus's flush: pending plan tallies land in both
        #: tables before any count is read or a new kind is added.
        self._flush_owner: Callable[[], None] | None = None

    def record(
        self,
        time: float,
        kind: TraceEventKind,
        frame: CANFrame,
        node: str = "",
        detail: str = "",
    ) -> TraceRecord | None:
        """Count the event and, at FULL/RING retention, append a record.

        Returns the appended :class:`TraceRecord`, or ``None`` at
        :attr:`TraceLevel.COUNTERS` (no record object exists).
        """
        value = kind._value_  # bypass the DynamicClassAttribute property
        kind_counts = self._kind_counts
        count = kind_counts.get(value)
        if count is None:
            # A new kind: pending tallies go first, so the per-kind
            # table keeps first-occurrence order.
            self._settle()
            count = kind_counts.get(value, 0)
        kind_counts[value] = count + 1
        key = (value, node, frame.can_id)
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        if self._records is None:
            return None
        entry = TraceRecord(time=time, kind=kind, frame=frame, node=node, detail=detail)
        self._records.append(entry)
        return entry

    def _settle(self) -> None:
        """Bring both count tables up to date with the owning bus."""
        if self._flush_owner is not None:
            self._flush_owner()

    # -- collection protocol ---------------------------------------------------

    def __len__(self) -> int:
        """Total events ever recorded (identical across retention levels)."""
        self._settle()
        return sum(self._kind_counts.values())

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate the *retained* records (empty at COUNTERS level)."""
        return iter(self._records if self._records is not None else ())

    def __getitem__(self, index: int) -> TraceRecord:
        if self._records is None:
            raise IndexError("trace retains no records at COUNTERS level")
        return self._records[index]

    @property
    def records_retained(self) -> int:
        """Number of record objects currently held (<= ``len(trace)``)."""
        return len(self._records) if self._records is not None else 0

    def clear(self) -> None:
        """Drop all records and empty both count tables."""
        self._settle()
        if self._records is not None:
            self._records.clear()
        self._kind_counts.clear()
        self._counts.clear()

    # -- count queries (every retention level) ----------------------------------

    def count(self, kind: TraceEventKind) -> int:
        """Number of events of the given kind over the whole run."""
        self._settle()
        return self._kind_counts.get(kind.value, 0)

    def blocked_count(self) -> int:
        """Events where a frame was blocked by a filter or policy."""
        self._settle()
        counts = self._kind_counts
        return sum(counts.get(value, 0) for value in _BLOCKED_VALUES)

    def policy_block_count(self) -> int:
        """Frames blocked by a *policy engine* (either direction)."""
        self._settle()
        counts = self._kind_counts
        return counts.get(TraceEventKind.BLOCKED_READ_POLICY.value, 0) + counts.get(
            TraceEventKind.BLOCKED_WRITE_POLICY.value, 0
        )

    def filter_block_count(self) -> int:
        """Frames blocked by a *software filter* (either direction)."""
        self._settle()
        counts = self._kind_counts
        return counts.get(TraceEventKind.BLOCKED_READ_FILTER.value, 0) + counts.get(
            TraceEventKind.BLOCKED_WRITE_FILTER.value, 0
        )

    def count_for_node(self, node: str, kind: TraceEventKind | None = None) -> int:
        """Events attributed to *node*, optionally restricted to one kind."""
        self._settle()
        value = None if kind is None else kind.value
        return sum(
            count
            for (kind_value, key_node, _), count in self._counts.items()
            if key_node == node and (value is None or kind_value == value)
        )

    def count_for_frame_id(self, can_id: int, kind: TraceEventKind | None = None) -> int:
        """Events concerning frames with *can_id*, optionally of one kind."""
        self._settle()
        value = None if kind is None else kind.value
        return sum(
            count
            for (kind_value, _, key_id), count in self._counts.items()
            if key_id == can_id and (value is None or kind_value == value)
        )

    def summary(self) -> dict[str, int]:
        """Count of events per kind (only kinds that occurred).

        Keys appear in first-occurrence order, exactly as a scan over a
        FULL record list would produce.
        """
        self._settle()
        return dict(self._kind_counts)

    # -- record queries (retained window only) ----------------------------------

    def of_kind(self, kind: TraceEventKind) -> list[TraceRecord]:
        """All retained records of the given kind."""
        return [r for r in (self._records or ()) if r.kind == kind]

    def for_frame_id(self, can_id: int) -> list[TraceRecord]:
        """All retained records concerning frames with the given identifier."""
        return [r for r in (self._records or ()) if r.frame.can_id == can_id]

    def for_node(self, node: str) -> list[TraceRecord]:
        """All retained records attributed to the given node."""
        return [r for r in (self._records or ()) if r.node == node]

    def filter(self, predicate: Callable[[TraceRecord], bool]) -> list[TraceRecord]:
        """All retained records matching an arbitrary predicate."""
        return [r for r in (self._records or ()) if predicate(r)]

    def blocked(self) -> list[TraceRecord]:
        """All retained records where a frame was blocked.

        For a whole-run count that works at every retention level use
        :meth:`blocked_count`.
        """
        return [r for r in (self._records or ()) if r.kind in BLOCKED_KINDS]

    def delivered_to(self, node: str, can_id: int | None = None) -> list[TraceRecord]:
        """Retained delivery records for a node, optionally for one identifier."""
        return [
            r
            for r in (self._records or ())
            if r.kind == TraceEventKind.DELIVERED
            and r.node == node
            and (can_id is None or r.frame.can_id == can_id)
        ]

    def was_delivered(self, node: str, can_id: int) -> bool:
        """Whether any frame with *can_id* reached the application on *node*."""
        return bool(self.delivered_to(node, can_id))

    def export_metrics(self, registry, prefix: str = "bus.events.") -> None:
        """Fold this trace's whole-run counts into a metrics registry.

        One ``{prefix}{kind}`` counter per event kind that occurred,
        plus ``bus.events_total`` and ``bus.blocked_total`` -- served
        entirely from the always-on count tables, so the export is
        valid (and identical) at every retention level.  The fleet
        runner calls this once per simulated vehicle when telemetry is
        enabled; it reads the tables only and cannot perturb the trace.
        """
        self._settle()
        for kind_value, count in self._kind_counts.items():
            registry.inc(prefix + kind_value, count)
        registry.inc("bus.events_total", len(self))
        registry.inc("bus.blocked_total", self.blocked_count())

    def merge(self, other: "BusTrace") -> "BusTrace":
        """A new FULL trace with both traces' retained records, time-ordered.

        Same-timestamp records order deterministically: this trace's
        records come first, each trace's own records stay in insertion
        order (the sort key is ``(time, source trace, insertion index)``).
        Both count tables are summed, so count queries on the merged
        trace cover both full runs even if a source trace retained fewer
        records.
        """
        self._settle()
        other._settle()
        merged = BusTrace()
        decorated = [(r.time, 0, i, r) for i, r in enumerate(self)]
        decorated += [(r.time, 1, i, r) for i, r in enumerate(other)]
        decorated.sort(key=lambda item: item[:3])
        merged._records = [item[3] for item in decorated]
        for source in (self, other):
            for table, target in (
                (source._kind_counts, merged._kind_counts),
                (source._counts, merged._counts),
            ):
                for key, count in table.items():
                    target[key] = target.get(key, 0) + count
        return merged
