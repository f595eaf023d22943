"""Pending-event queue keyed by (time to fire, microstep).

Times are stored relative to "now": the head entry's time is the exact
amount by which the clock must advance before its events are delivered.
Relative storage keeps queues with identical futures structurally equal
regardless of how much absolute time has already passed, which is what
lets the state-graph construction close cycles.

Entries at the same (time, microstep) are merged into one batch.  Within
a batch, at most one event per target port is kept: scheduling a second
event for a port that already has one at the same tag replaces the old
value (a diagnostic is logged, since this usually means two sources race
on one port).

The engine keeps its queue flat, as a tuple of ``(time, microstep,
events)`` entries: times are integers in ticks of the model's timebase
(see network.py), and a batch is a tuple of ``(port id, Present status)``
pairs sorted by port id.  The functions below work on that form; an
entry changes only when its time or microstep does.  :class:`EventQueue`
is the same queue with exact rational times and :class:`Event` objects,
and only a view: the one a system state shows its callers
(``SystemState.queue``, built by :func:`queue_view`).  No state is built
from one.  Its methods (``add``, ``advance_time``, ``advance_microstep``
and ``pop_ready``) are a second queue that no engine phase uses; they
stay bound for the benchmark's tracer, which wraps them by name.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyQueue, NotAtMicrostepBoundary, NotReady
from .model import PortRef
from .util import format_rational, time_amount
from .values import Value

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Event:
    target: PortRef  # absolute path, pointing at an input port
    value: Value

    def sort_key(self):
        # A batch holds at most one event per target port, so the target
        # alone orders it.
        return (self.target.actor, self.target.port)


@dataclass(frozen=True)
class QueueEntry:
    time: Fraction  # relative to now; non-negative
    microstep: int
    events: tuple  # sorted Events, unique per target port

    def tag(self):
        return (self.time, self.microstep)


def _merge(events, new: Event, tag):
    """Insert ``new`` into the batch at ``tag``, replacing any event for the same port."""
    kept = []
    for ev in events:
        if ev.target == new.target:
            log.warning(
                "replacing event for %r at (%s, %s): %r superseded by %r",
                ev.target,
                format_rational(tag[0]),
                tag[1],
                ev.value,
                new.value,
            )
        else:
            kept.append(ev)
    kept.append(new)
    return tuple(sorted(kept, key=Event.sort_key))


@dataclass(frozen=True)
class EventQueue:
    entries: tuple = ()  # QueueEntry, strictly increasing (time, microstep)

    def add(self, time, microstep: int, event: Event) -> "EventQueue":
        """Schedule one event ``time`` from now at the given microstep."""
        time = time_amount(time)
        if microstep < 0:
            raise ValueError("microstep must be non-negative")
        tag = (time, microstep)
        entries = list(self.entries)
        for i, entry in enumerate(entries):
            if entry.tag() == tag:
                entries[i] = QueueEntry(time, microstep, _merge(entry.events, event, tag))
                break
            if entry.tag() > tag:
                entries.insert(i, QueueEntry(time, microstep, (event,)))
                break
        else:
            entries.append(QueueEntry(time, microstep, (event,)))
        return EventQueue(tuple(entries))

    def advance_time(self, dt) -> "EventQueue":
        """Let ``dt`` time pass.  Must not skip past the head entry.

        Decrements every entry's time to fire.  Advancing by a positive
        amount is only allowed from a microstep boundary: if the head
        entry is at time zero with a positive microstep, the pending
        microsteps have to be consumed first.
        """
        dt = time_amount(dt)
        if dt == 0:
            return self
        if self.entries:
            head = self.entries[0]
            if head.time == 0 and head.microstep > 0:
                raise NotAtMicrostepBoundary(
                    f"cannot advance time across pending microstep {head.microstep}"
                )
            if dt > head.time:
                raise NotReady(
                    f"cannot advance by {format_rational(dt)}: next event fires in "
                    f"{format_rational(head.time)}"
                )
        entries = tuple(
            QueueEntry(e.time - dt, e.microstep, e.events) for e in self.entries
        )
        return EventQueue(entries)

    def advance_microstep(self) -> "EventQueue":
        """Jump to the head entry's microstep (head must be at time zero)."""
        if not self.entries:
            raise EmptyQueue()
        head = self.entries[0]
        if head.time != 0 or head.microstep == 0:
            raise NotReady(f"head entry is at {head.tag()}, not at a pending microstep")
        n = head.microstep
        entries = tuple(
            QueueEntry(e.time, e.microstep - n, e.events) if e.time == 0 else e
            for e in self.entries
        )
        return EventQueue(entries)

    def pop_ready(self):
        """Remove and return the events due now (head tag must be (0, 0))."""
        if not self.entries:
            raise EmptyQueue()
        head = self.entries[0]
        if head.tag() != (Fraction(0), 0):
            raise NotReady(f"head entry is at {head.tag()}, not due yet")
        return head.events, EventQueue(self.entries[1:])

    def summary(self):
        """[(time, microstep, event count), ...] for traces and debugging."""
        return [(e.time, e.microstep, len(e.events)) for e in self.entries]


EMPTY_QUEUE = EventQueue()


# The engine's flat queue. ---------------------------------------------------


def schedule(entries: tuple, time: int, microstep: int, event, network) -> tuple:
    """The flat queue with ``event`` (port id, status) added ``time`` ticks from now.

    ``network`` names the port and the time in the diagnostic for a
    replaced event.
    """
    pid = event[0]
    for i, (t, m, events) in enumerate(entries):
        if t == time and m == microstep:
            kept = []
            for old in events:
                if old[0] == pid:
                    path, port, _ = network.keys[pid]
                    log.warning(
                        "replacing event for %r at (%s, %s): %r superseded by %r",
                        PortRef(path, port),
                        format_rational(Fraction(time, network.timebase)),
                        microstep,
                        old[1].value,
                        event[1].value,
                    )
                else:
                    kept.append(old)
            kept.append(event)
            kept.sort(key=_port_id)
            return entries[:i] + ((t, m, tuple(kept)),) + entries[i + 1 :]
        if t > time or (t == time and m > microstep):
            return entries[:i] + ((time, microstep, (event,)),) + entries[i:]
    return entries + ((time, microstep, (event,)),)


def _port_id(event):
    return event[0]


def advance_time(entries: tuple, dt: int) -> tuple:
    """Let ``dt`` ticks pass; the caller advances exactly to the head entry."""
    return tuple((t - dt, m, events) for t, m, events in entries)


def advance_microstep(entries: tuple, n: int) -> tuple:
    """Jump ``n`` microsteps, to the head entry's; only entries due now move."""
    return tuple(entry if entry[0] else (0, entry[1] - n, entry[2]) for entry in entries)


def queue_view(entries: tuple, network) -> EventQueue:
    """The flat queue as an EventQueue: rational times, Events sorted by target."""
    base = network.timebase
    keys = network.keys
    out = []
    for t, m, events in entries:
        batch = [Event(PortRef(keys[pid][0], keys[pid][1]), status.value) for pid, status in events]
        batch.sort(key=Event.sort_key)
        out.append(QueueEntry(Fraction(t, base), m, tuple(batch)))
    return EventQueue(tuple(out))
