"""Columnar form of an off-loaded cedarhpm trace buffer.

The real monitor writes ``(event id, timestamp, processor id)`` records
into flat hardware buffers that are analysed in bulk after the run
(Section 4).  :class:`HpmTrace` keeps the off-loaded buffer the same
way: one numpy column per record field, so the analysis layer can scan
a whole trace with array operations and a snapshot pickles as a handful
of arrays rather than one Python object per event.

Column layout (all of length ``len(trace)``, record order):

``types``
    event id (:class:`~repro.hpm.events.EventType` value);
``times``
    quantised timestamp in nanoseconds (always ``int64``);
``ces``
    id of the processor (CE) the event occurred on;
``tasks``
    cluster task id (``-1`` for OS events);
``payload_ids``
    index into ``payloads``, the tuple of distinct payload objects.

Every column except ``times`` is stored in the narrowest signed integer
type that holds its values.  All columns are read-only.

For code that wants events rather than columns, the trace is a
read-only sequence: ``len``, iteration and indexing build
:class:`~repro.hpm.events.TraceEvent` objects on demand, and a trace
compares equal, element by element, to any sequence of equal events.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.hpm.events import EventType, TraceEvent

__all__ = ["HpmTrace"]

#: Event id -> EventType, for building TraceEvents on demand.
_EVENT_TYPES: dict[int, EventType] = {int(e): e for e in EventType}

_NARROW_TYPES = (np.int8, np.int16, np.int32)


def _narrow(values: Sequence[int]) -> np.ndarray:
    """A read-only copy of *values* in the narrowest int dtype that fits."""
    column = np.array(values, dtype=np.int64)
    if len(column):
        lo, hi = int(column.min()), int(column.max())
        for dtype in _NARROW_TYPES:
            info = np.iinfo(dtype)
            if info.min <= lo and hi <= info.max:
                column = column.astype(dtype)
                break
    column.flags.writeable = False
    return column


def _frozen_times(values: Sequence[int]) -> np.ndarray:
    column = np.array(values, dtype=np.int64)
    column.flags.writeable = False
    return column


class HpmTrace(Sequence):
    """An immutable, columnar cedarhpm trace (see the module docstring)."""

    __slots__ = ("types", "times", "ces", "tasks", "payload_ids", "payloads")

    types: np.ndarray
    times: np.ndarray
    ces: np.ndarray
    tasks: np.ndarray
    payload_ids: np.ndarray
    payloads: tuple

    def __init__(
        self,
        types: np.ndarray,
        times: np.ndarray,
        ces: np.ndarray,
        tasks: np.ndarray,
        payload_ids: np.ndarray,
        payloads: tuple,
    ) -> None:
        self.types = types
        self.times = times
        self.ces = ces
        self.tasks = tasks
        self.payload_ids = payload_ids
        self.payloads = payloads

    # -- construction -------------------------------------------------------

    @classmethod
    def freeze(
        cls,
        types: "array[int]",
        times: "array[int]",
        ces: "array[int]",
        tasks: "array[int]",
        payloads: list,
    ) -> "HpmTrace":
        """Copy a monitor's recording columns into a frozen trace.

        Payloads are interned by identity: every event that carried the
        same payload object refers to one entry of ``payloads``, so a
        trace shares payload objects exactly as the recording did.
        """
        addresses = np.fromiter(map(id, payloads), dtype=np.uint64, count=len(payloads))
        _, first, inverse = np.unique(addresses, return_index=True, return_inverse=True)
        # Number the distinct payloads in order of first use, so the
        # columns do not depend on where the objects live in memory.
        by_first_use = np.argsort(first)
        rank = np.empty_like(by_first_use)
        rank[by_first_use] = np.arange(len(by_first_use))
        ids = rank[inverse.reshape(-1)]
        distinct = [payloads[i] for i in first[by_first_use].tolist()]
        return cls(
            _narrow(types),
            _frozen_times(times),
            _narrow(ces),
            _narrow(tasks),
            _narrow(ids),
            tuple(distinct),
        )

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "HpmTrace":
        """Build a trace from :class:`TraceEvent` objects (e.g. a loaded file)."""
        if isinstance(events, HpmTrace):
            return events
        types, times, ces, tasks = array("q"), array("q"), array("q"), array("q")
        payloads = []
        for event in events:
            types.append(event.event_type)
            times.append(event.timestamp_ns)
            ces.append(event.processor_id)
            tasks.append(event.task_id)
            payloads.append(event.payload)
        return cls.freeze(types, times, ces, tasks, payloads)

    def __reduce__(self):
        return (
            HpmTrace,
            (self.types, self.times, self.ces, self.tasks, self.payload_ids, self.payloads),
        )

    # -- column queries ---------------------------------------------------------

    def type_counts(self) -> dict[EventType, int]:
        """Events recorded per event type (types absent from the trace omitted)."""
        counts = np.bincount(self.types.astype(np.intp)) if len(self) else []
        return {
            _EVENT_TYPES[value]: int(count)
            for value, count in enumerate(counts)
            if count
        }

    # -- read-only sequence of TraceEvents -------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return HpmTrace(
                self.types[index],
                self.times[index],
                self.ces[index],
                self.tasks[index],
                self.payload_ids[index],
                self.payloads,
            )
        return TraceEvent(
            _EVENT_TYPES[int(self.types[index])],
            int(self.times[index]),
            int(self.ces[index]),
            int(self.tasks[index]),
            self.payloads[self.payload_ids[index]],
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        payloads = self.payloads
        for etype, t, ce, task, pid in zip(
            self.types.tolist(),
            self.times.tolist(),
            self.ces.tolist(),
            self.tasks.tolist(),
            self.payload_ids.tolist(),
        ):
            yield TraceEvent(_EVENT_TYPES[etype], t, ce, task, payloads[pid])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HpmTrace):
            return (
                np.array_equal(self.types, other.types)
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.ces, other.ces)
                and np.array_equal(self.tasks, other.tasks)
                and all(
                    self.payloads[a] == other.payloads[b]
                    for a, b in zip(
                        self.payload_ids.tolist(), other.payload_ids.tolist()
                    )
                )
            )
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HpmTrace({len(self)} events, {len(self.payloads)} payloads)"
