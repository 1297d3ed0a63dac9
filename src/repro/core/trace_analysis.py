"""Reconstruction of activity intervals from cedarhpm event traces.

The paper's Sections 5-7 analyses all start from the off-loaded event
traces; this module turns the columnar trace
(:class:`~repro.hpm.columns.HpmTrace`) into paired intervals (per
processor, per kind) and per-task parallel-loop regions, which the
breakdown, concurrency and contention modules consume.

Everything is derived in one pass per result: :func:`trace_memo`
pairs the whole trace with array operations, collects every task's
loop regions, and keeps the outcome in ``RunResult._cache`` so each
table query afterwards is a few masked array reductions.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hpm.columns import HpmTrace
from repro.hpm.events import EventType, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunResult

__all__ = [
    "IntervalKind",
    "Interval",
    "IntervalTable",
    "TraceMemo",
    "extract_intervals",
    "intervals_of",
    "trace_memo",
]


class IntervalKind(enum.Enum):
    """Kinds of reconstructed activity intervals."""

    SERIAL = "serial"
    MC_LOOP = "mc_loop"
    SETUP = "setup"
    PICKUP = "pickup"
    ITERATION = "iteration"
    BARRIER = "barrier"
    HELPER_WAIT = "helper_wait"
    SYSCALL = "syscall"
    INTERRUPT = "interrupt"
    AST = "ast"
    CTX = "ctx"
    PROGRAM = "program"


#: (open event, close event) -> interval kind.
_PAIRS: dict[EventType, tuple[EventType, IntervalKind]] = {
    EventType.SERIAL_START: (EventType.SERIAL_END, IntervalKind.SERIAL),
    EventType.MC_LOOP_START: (EventType.MC_LOOP_END, IntervalKind.MC_LOOP),
    EventType.SETUP_ENTER: (EventType.SETUP_EXIT, IntervalKind.SETUP),
    EventType.PICKUP_ENTER: (EventType.PICKUP_EXIT, IntervalKind.PICKUP),
    EventType.ITER_START: (EventType.ITER_END, IntervalKind.ITERATION),
    EventType.BARRIER_ENTER: (EventType.BARRIER_EXIT, IntervalKind.BARRIER),
    EventType.WAIT_WORK_ENTER: (EventType.WAIT_WORK_EXIT, IntervalKind.HELPER_WAIT),
    EventType.SYSCALL_ENTER: (EventType.SYSCALL_EXIT, IntervalKind.SYSCALL),
    EventType.INTERRUPT_ENTER: (EventType.INTERRUPT_EXIT, IntervalKind.INTERRUPT),
    EventType.AST_ENTER: (EventType.AST_EXIT, IntervalKind.AST),
    EventType.CTX_SWITCH_ENTER: (EventType.CTX_SWITCH_EXIT, IntervalKind.CTX),
    EventType.PROGRAM_START: (EventType.PROGRAM_END, IntervalKind.PROGRAM),
}

_CLOSERS = {closer: opener for opener, (closer, _) in _PAIRS.items()}


@dataclass(frozen=True)
class Interval:
    """One reconstructed activity interval."""

    kind: IntervalKind
    processor_id: int
    task_id: int
    start_ns: int
    end_ns: int
    #: Payload of the opening event (loop seq/construct/label tuple
    #: for runtime events).
    payload: object = None

    @property
    def duration_ns(self) -> int:
        """Interval length in nanoseconds."""
        return self.end_ns - self.start_ns

    @property
    def construct(self) -> str | None:
        """Loop construct name from the payload, if present."""
        if isinstance(self.payload, tuple) and len(self.payload) >= 2:
            return self.payload[1]
        return None

    @property
    def loop_seq(self) -> int | None:
        """Posted-loop sequence number from the payload, if present."""
        if isinstance(self.payload, tuple) and len(self.payload) >= 1:
            return self.payload[0]
        return None


#: Interval kinds by column code (the order of :data:`_PAIRS`).
_KINDS: tuple[IntervalKind, ...] = tuple(kind for _, kind in _PAIRS.values())
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}

#: Event id -> interval-kind code (-1 for point events) and -> +1 for
#: an opening event, -1 for a closing one.
_KIND_OF = np.full(max(EventType) + 1, -1, dtype=np.int64)
_STEP_OF = np.zeros(max(EventType) + 1, dtype=np.int64)
for _code, (_opener, (_closer, _)) in enumerate(_PAIRS.items()):
    _KIND_OF[[_opener, _closer]] = _code
    _STEP_OF[_opener], _STEP_OF[_closer] = 1, -1


@dataclass(frozen=True)
class IntervalTable:
    """Paired intervals as columns, sorted by ``(start, end)``.

    ``kind`` holds :class:`IntervalKind` codes (indices into
    ``_KINDS``); ``payload_id`` indexes ``payloads``, the trace's
    distinct payloads (the payload of each interval's opening event).
    """

    kind: np.ndarray
    ce: np.ndarray
    task: np.ndarray
    start: np.ndarray
    end: np.ndarray
    payload_id: np.ndarray
    payloads: tuple

    def durations(self) -> np.ndarray:
        """``end - start`` of every interval (int64 ns)."""
        return self.end - self.start

    def intervals(self) -> list[Interval]:
        """The table as :class:`Interval` objects, in table order."""
        payloads = self.payloads
        return [
            Interval(_KINDS[kind], ce, task, start, end, payloads[pid])
            for kind, ce, task, start, end, pid in zip(
                self.kind.tolist(),
                self.ce.tolist(),
                self.task.tolist(),
                self.start.tolist(),
                self.end.tolist(),
                self.payload_id.tolist(),
            )
        ]


def _pair(trace: HpmTrace, end_ns: int | None) -> IntervalTable:
    """Vectorised LIFO pairing of enter/exit events per (CE, kind).

    Within one (CE, kind) stream, the *level* of an opening event is
    the nesting depth after it and the level of a closing event the
    depth before it.  LIFO pairing matches each close with the latest
    unmatched open, which is exactly the previous event of the same
    level in that stream: at any one level, opens and closes alternate.
    So a stable sort by (stream, level) puts every close directly after
    its open.
    """
    kind_of = _KIND_OF[trace.types]
    sel = np.flatnonzero(kind_of >= 0)
    kind = kind_of[sel]
    ce = trace.ces[sel].astype(np.int64)
    step = _STEP_OF[trace.types[sel]]
    # Streams: group by (CE, kind), record order within each.
    by_stream = np.lexsort((kind, ce))
    ce_s, kind_s, step_s = ce[by_stream], kind[by_stream], step[by_stream]
    first = np.ones(len(sel), dtype=bool)
    first[1:] = (ce_s[1:] != ce_s[:-1]) | (kind_s[1:] != kind_s[:-1])
    stream = np.cumsum(first) - 1
    depth = np.cumsum(step_s)
    depth -= (depth - step_s)[first][stream]
    level = np.where(step_s > 0, depth, depth + 1)
    unmatched = np.flatnonzero((step_s < 0) & (level <= 0))
    if len(unmatched):
        index = int(sel[by_stream[unmatched]].min())
        etype = EventType(int(trace.types[index]))
        opener_type = _CLOSERS[etype]
        raise ValueError(
            f"{etype.name} without matching {opener_type.name} on "
            f"processor {int(trace.ces[index])} at t={int(trace.times[index])}"
        )
    by_level = np.lexsort((level, stream))
    record = sel[by_stream[by_level]]
    closes = np.flatnonzero(step_s[by_level] < 0)
    closer = record[closes]
    opener = record[closes - 1]
    # Ties on (start, end) keep the order the event-by-event pairing
    # produced them in: closed intervals in the order their close was
    # recorded, then (with end_ns) the still-open ones, stream by
    # stream in order of each stream's first event (always an open).
    gen = closer
    if end_ns is not None:
        is_left = step_s[by_level] > 0
        is_left[closes - 1] = False
        left = np.flatnonzero(is_left)
        left_record = record[left]
        stream_start = sel[by_stream[first]]
        rank = np.lexsort((left_record, stream_start[stream[by_level][left]]))
        left_gen = np.empty(len(left), dtype=np.int64)
        left_gen[rank] = len(trace) + np.arange(len(left))
        opener = np.concatenate((opener, left_record))
        gen = np.concatenate((gen, left_gen))
        end = np.concatenate((trace.times[closer], np.full(len(left), end_ns, dtype=np.int64)))
    else:
        end = trace.times[closer]
    start = trace.times[opener]
    order = np.lexsort((gen, end, start))
    return IntervalTable(
        kind=kind_of[opener][order],
        ce=trace.ces[opener][order].astype(np.int64),
        task=trace.tasks[opener][order].astype(np.int64),
        start=start[order],
        end=end[order],
        payload_id=trace.payload_ids[opener][order],
        payloads=trace.payloads,
    )


def extract_intervals(
    events: Iterable[TraceEvent], end_ns: int | None = None
) -> list[Interval]:
    """Pair enter/exit events into intervals.

    Events are paired per (processor, kind), LIFO when the same kind
    nests on one processor (e.g. serialised OS services recorded
    back-to-back); an unclosed interval is closed at *end_ns* when
    given, otherwise dropped.  Raises ``ValueError`` on a close without
    a matching open, which would indicate corrupt instrumentation.
    The result is sorted by ``(start_ns, end_ns)``.
    """
    return _pair(HpmTrace.from_events(events), end_ns).intervals()


def _seq(payload: object) -> object:
    """Posted-loop key of a payload: its first field, or the payload."""
    if isinstance(payload, tuple) and payload:
        return payload[0]
    return payload


def _construct(payload: object) -> str | None:
    if isinstance(payload, tuple) and len(payload) >= 2:
        return payload[1]
    return None


_POST = int(EventType.LOOP_POST)
_BARRIER = int(EventType.BARRIER_ENTER)
_JOIN = int(EventType.HELPER_JOIN)
_DETACH = int(EventType.LOOP_DETACH)


class TraceMemo:
    """Everything the analysis derives from one run's trace, computed once.

    ``table`` holds the paired intervals (unclosed ones closed at the
    run's completion time); :meth:`loop_regions` answers every task's
    parallel-loop regions from one scan of the loop post/barrier and
    join/detach events.
    """

    def __init__(self, trace: HpmTrace, end_ns: int) -> None:
        self.table = _pair(trace, end_ns)
        constructs: dict[str | None, int] = {}
        codes = [
            constructs.setdefault(_construct(payload), len(constructs))
            for payload in trace.payloads
        ]
        self._constructs = constructs
        self._construct_id = np.array(codes, dtype=np.int64)[self.table.payload_id]
        #: ``end - start`` of every interval in :attr:`table` (int64 ns).
        self.durations = self.table.durations()
        self._regions = self._scan_regions(trace)
        self._interval_list: list[Interval] | None = None

    def _scan_regions(self, trace: HpmTrace) -> dict[int, list[tuple[int, int]]]:
        """Per-task loop regions (see :func:`repro.core.concurrency.loop_regions`)."""
        marks = np.flatnonzero(np.isin(trace.types, (_POST, _BARRIER, _JOIN, _DETACH)))
        payloads = trace.payloads
        opened: dict[int, dict[object, int]] = {}
        regions: dict[int, list[tuple[int, int]]] = {0: []}
        for etype, task, t, pid in zip(
            trace.types[marks].tolist(),
            trace.tasks[marks].tolist(),
            trace.times[marks].tolist(),
            trace.payload_ids[marks].tolist(),
        ):
            # The main task's regions run post -> barrier entry, a
            # helper's join -> detach; other pairs are not regions.
            if (task == 0) != (etype in (_POST, _BARRIER)):
                continue
            seq = _seq(payloads[pid])
            if etype == _POST or etype == _JOIN:
                opened.setdefault(task, {})[seq] = t
            else:
                start = opened.setdefault(task, {}).pop(seq, None)
                if start is not None:
                    regions.setdefault(task, []).append((start, t))
        mc = self.mask(IntervalKind.MC_LOOP, 0)
        regions[0].extend(zip(self.table.start[mc].tolist(), self.table.end[mc].tolist()))
        for spans in regions.values():
            spans.sort()
        return regions

    def mask(self, kind: IntervalKind, task_id: int) -> np.ndarray:
        """Boolean mask of the *task_id* intervals of *kind* in :attr:`table`."""
        table = self.table
        return (table.kind == _KIND_CODE[kind]) & (table.task == task_id)

    def total_ns(self, kind: IntervalKind, task_id: int) -> float:
        """Summed duration of the *task_id* intervals of *kind*."""
        return float(self.durations[self.mask(kind, task_id)].sum())

    def construct_mask(self, constructs: Iterable[str]) -> np.ndarray:
        """Boolean mask of the intervals whose loop construct is in *constructs*."""
        codes = [self._constructs[c] for c in constructs if c in self._constructs]
        return np.isin(self._construct_id, codes)

    def loop_regions(self, task_id: int) -> list[tuple[int, int]]:
        """Sorted ``(start, end)`` parallel-loop regions of one task."""
        return list(self._regions.get(task_id, ()))

    def intervals(self) -> list[Interval]:
        """The paired intervals as :class:`Interval` objects (cached)."""
        if self._interval_list is None:
            self._interval_list = self.table.intervals()
        return self._interval_list


def trace_memo(result: "RunResult") -> TraceMemo:
    """The :class:`TraceMemo` of *result*, built on first use."""
    memo = result._cache.get("trace_memo")
    if memo is None:
        memo = TraceMemo(HpmTrace.from_events(result.events), result.ct_ns)
        result._cache["trace_memo"] = memo
    return memo


def intervals_of(
    intervals: list[Interval],
    kind: IntervalKind,
    task_id: int | None = None,
    construct: str | None = None,
) -> list[Interval]:
    """Filter intervals by kind and optionally task and construct."""
    out = []
    for interval in intervals:
        if interval.kind is not kind:
            continue
        if task_id is not None and interval.task_id != task_id:
            continue
        if construct is not None and interval.construct != construct:
            continue
        out.append(interval)
    return out
