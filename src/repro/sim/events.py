"""A minimal discrete-event core: a time-ordered event queue.

Events are ``(time, sequence, payload)`` triples in a binary heap; the
sequence number breaks ties deterministically (FIFO among simultaneous
events), which keeps whole simulations reproducible.

The queue *is* the simulation clock: ``now`` starts at 0 and only
advances when an event is popped, so no simulation reads ambient time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ScheduledEvent", "EventQueue"]


@dataclass(frozen=True, order=True)
class ScheduledEvent:
    """One queued event; ordering is (time, sequence)."""

    time: float
    sequence: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Deterministic min-heap event queue; time starts at 0."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, delay: float, kind: str, payload: Any = None) -> ScheduledEvent:
        """Schedule an event ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        event = ScheduledEvent(
            time=self.now + delay, sequence=next(self._counter),
            kind=kind, payload=payload,
        )
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, kind: str, payload: Any = None) -> ScheduledEvent:
        """Schedule an event at an absolute time ≥ now."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        event = ScheduledEvent(
            time=time, sequence=next(self._counter), kind=kind, payload=payload
        )
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> ScheduledEvent:
        """Advance the clock to and return the next event."""
        if not self._heap:
            raise IndexError("event queue is empty")
        event = heapq.heappop(self._heap)
        self.now = event.time
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

