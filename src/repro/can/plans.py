"""Delivery plans: the process-wide memo of per-frame receive outcomes.

With counters-only tracing and compiled decision tables, what a frame
does at each receiver -- reach the application, or be blocked by the
policy engine or by the software acceptance filter -- is a pure
function of the frame's identifier, its sender and the bus
configuration.  The configuration is the value of every verdict input:
the receiver names in attachment order, each receiver's compiled read
mask and compiled acceptance-filter bitset, the filter bank's
compromise flag, the transceiver's standby state and whether a
blocked-frame hook is set.  A :class:`Plan` records those outcomes for
one ``(configuration, identifier, sender)``.

Plans are memoised here by that value, not per bus: every pooled car,
every reset and every policy re-sync that lands on the same tables
finds the plans already built.  The memo holds at most
:data:`MAX_PLANS` plans and starts over when it is full.

A bus that holds plans is *armed*.  Every mutation of a verdict input
calls :func:`invalidate`, which flushes each armed bus's pending
tallies and disarms it, so the next frame re-reads the configuration;
counter resets call :func:`flush_all` first.  The registry is global
because the objects that mutate (filter banks, transceivers, engines)
do not know their bus; like the fleet runner's per-process car pool, it
assumes one thread drives the simulation in a process.  The bus side
(hits, tallies, flushes) lives in :mod:`repro.can.bus`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.can.bus import CANBus

#: Most plans the process keeps; the memo is emptied when it is full.
MAX_PLANS = 4096


class Plan:
    """What one frame identifier from one sender does on one configuration.

    ``outcomes`` lists, for every receiver the frame reaches, its slot
    (``3 * index + verdict``, *index* into the bus's attachment-ordered
    receivers), the trace kind value of its verdict and its name;
    ``effects`` lists the receivers a hit must still visit -- every
    delivering receiver (reason ``None``) and every blocked receiver with
    a blocked-frame hook (the block reason).  Both are interned: plans of
    one configuration mostly share them.
    """

    __slots__ = ("sender", "can_id", "outcomes", "effects")

    def __init__(
        self,
        sender: str,
        can_id: int,
        outcomes: tuple[tuple[int, str, str], ...],
        effects: tuple[tuple[int, str | None], ...],
    ) -> None:
        self.sender = sender
        self.can_id = can_id
        self.outcomes = outcomes
        self.effects = effects


#: Configuration value -> {sender -> {can_id -> plan}}.
_CONFIGS: dict[tuple, dict[str, dict[int, Plan]]] = {}
#: Interned outcome and effect tuples.
_SHAPES: dict[tuple, tuple] = {}
_plan_count = 0
#: Buses currently holding a configuration's plans.
_ARMED: list["CANBus"] = []


def plans_for(configuration: tuple) -> dict[str, dict[int, Plan]]:
    """The memoised plans of *configuration* (an empty table when new)."""
    plans = _CONFIGS.get(configuration)
    if plans is None:
        plans = _CONFIGS[configuration] = {}
    return plans


def remember(
    plans: dict[str, dict[int, Plan]],
    sender: str,
    can_id: int,
    outcomes: tuple[tuple[int, str, str], ...],
    effects: tuple[tuple[int, str | None], ...],
) -> None:
    """Store a freshly built plan in *plans*, emptying the memo when full."""
    global _plan_count
    if _plan_count >= MAX_PLANS:
        for table in _CONFIGS.values():
            table.clear()
        _CONFIGS.clear()
        _SHAPES.clear()
        _plan_count = 0
    outcomes = _SHAPES.setdefault(outcomes, outcomes)
    effects = _SHAPES.setdefault(effects, effects)
    by_id = plans.get(sender)
    if by_id is None:
        by_id = plans[sender] = {}
    by_id[can_id] = Plan(sender, can_id, outcomes, effects)
    _plan_count += 1


def arm(bus: "CANBus") -> None:
    """Register *bus* as holding plans until the next :func:`invalidate`."""
    _ARMED.append(bus)


def invalidate() -> None:
    """A verdict input is about to change: flush and disarm every armed bus."""
    if _ARMED:
        armed = list(_ARMED)
        _ARMED.clear()
        for bus in armed:
            bus._disarm()


def flush_all() -> None:
    """Expand every armed bus's pending tallies into its counters."""
    for bus in _ARMED:
        bus._flush()


def clear() -> None:
    """Drop every memoised plan (armed buses re-read their configuration)."""
    global _plan_count
    invalidate()
    _CONFIGS.clear()
    _SHAPES.clear()
    _plan_count = 0
