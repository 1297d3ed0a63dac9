"""The ``cedarhpm`` hardware performance monitor model.

The real monitor is an external, non-intrusive tracing facility
developed at UICSRD: instrumented code posts events to hardware trigger
points; the monitor records ``(event id, timestamp, processor id)``
into trace buffers with 50 ns timestamp resolution, and the buffers are
off-loaded for analysis after the run (Section 4).  Recording costs one
move instruction, i.e. negligible time, so the model charges no
simulated time for recording.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator

from repro.hpm.columns import HpmTrace
from repro.hpm.events import EventType, TraceEvent
from repro.sim import Simulator

__all__ = ["CedarHpm"]


class CedarHpm:
    """Non-intrusive event-trace monitor with 50 ns resolution.

    Records go straight into typed columns -- event id, quantised
    timestamp, CE and task as ``array('q')``, payloads as a list --
    and :meth:`offload` freezes them into an :class:`HpmTrace`; no
    per-event object is built unless a subscriber asks for one.

    Parameters
    ----------
    sim:
        Simulator whose clock timestamps the events.
    resolution_ns:
        Timestamp quantisation (50 ns for the real monitor).
    buffer_capacity:
        Maximum number of events kept (the hardware buffers are finite;
        ``None`` means unbounded).
    """

    def __init__(
        self,
        sim: Simulator,
        resolution_ns: int = 50,
        buffer_capacity: int | None = None,
    ) -> None:
        if resolution_ns <= 0:
            raise ValueError(f"resolution_ns must be positive, got {resolution_ns}")
        self.sim = sim
        self.resolution_ns = resolution_ns
        self.buffer_capacity = buffer_capacity
        self._types = array("q")
        self._times = array("q")
        self._ces = array("q")
        self._tasks = array("q")
        self._payloads: list = []
        self.dropped = 0
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    def record(
        self,
        event_type: EventType,
        processor_id: int,
        task_id: int = -1,
        payload: object = None,
    ) -> int | None:
        """Record one event at the current simulated time.

        Returns the event's index in the buffer, or ``None`` if the
        buffer was full (the event is counted in :attr:`dropped`).
        """
        index = len(self._times)
        if self.buffer_capacity is not None and index >= self.buffer_capacity:
            self.dropped += 1
            return None
        quantised = (self.sim.now // self.resolution_ns) * self.resolution_ns
        self._types.append(event_type)
        self._times.append(quantised)
        self._ces.append(processor_id)
        self._tasks.append(task_id)
        self._payloads.append(payload)
        if self._subscribers:
            event = TraceEvent(event_type, quantised, processor_id, task_id, payload)
            for subscriber in self._subscribers:
                subscriber(event)
        return index

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke *callback* with a :class:`TraceEvent` for every
        subsequently recorded event."""
        self._subscribers.append(callback)

    # -- off-loading (trace access) --------------------------------------

    def offload(self) -> HpmTrace:
        """All recorded events in record order (the off-loaded buffer)."""
        return HpmTrace.freeze(
            self._types, self._times, self._ces, self._tasks, self._payloads
        )

    def __len__(self) -> int:
        return len(self._times)

    def events_of(self, *event_types: EventType) -> Iterator[TraceEvent]:
        """Iterate over events of the given types, in record order."""
        wanted = set(event_types)
        return (e for e in self.offload() if e.event_type in wanted)

    def events_on(self, processor_id: int) -> Iterator[TraceEvent]:
        """Iterate over the events recorded on one processor."""
        return (e for e in self.offload() if e.processor_id == processor_id)

    def events_for_task(self, task_id: int) -> Iterator[TraceEvent]:
        """Iterate over the events recorded for one task."""
        return (e for e in self.offload() if e.task_id == task_id)

    def clear(self) -> None:
        """Discard the trace buffer contents."""
        for column in (self._types, self._times, self._ces, self._tasks):
            del column[:]
        self._payloads.clear()
        self.dropped = 0
